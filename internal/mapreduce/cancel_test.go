package mapreduce

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/value"
	"repro/internal/workers"
)

// TestRunStopsClaimingOnceCanceled pins Config.Canceled: once it reports
// true no executor claims another chunk, and the run fails with
// workers.ErrCanceled, at one worker as at several.
func TestRunStopsClaimingOnceCanceled(t *testing.T) {
	const n = 10000
	for _, w := range []int{1, 4} {
		var mapped, polls atomic.Int64
		m := func(item value.Value) (string, value.Value, error) {
			mapped.Add(1)
			return "", item, nil
		}
		canceled := func() bool { return polls.Add(1) > 3 }
		_, err := Run(value.Range(1, n, 1), m, CountReduce, Config{Workers: w, Canceled: canceled})
		if !errors.Is(err, workers.ErrCanceled) {
			t.Fatalf("w=%d: err = %v, want ErrCanceled", w, err)
		}
		if got := mapped.Load(); got >= n {
			t.Fatalf("w=%d: mapped all %d items after the cancel", w, got)
		}
	}
	// A cancel flag that never fires changes nothing.
	res, err := Run(value.Range(1, 100, 1), SingleKey, CountReduce,
		Config{Workers: 1, Canceled: func() bool { return false }})
	if err != nil || len(res) != 1 || res[0].Val.String() != "100" {
		t.Fatalf("uncanceled run = %v, %v", res, err)
	}
}
