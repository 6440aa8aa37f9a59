package mapreduce

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/value"
	"repro/internal/workers"
)

// TestChunkContractMapReduce is the MapReduce engine's leg of the worker
// pool's chunk-loop contract (workers.TestChunkContract), at several
// worker counts: the lowest failing record is reported with the engine's
// wording for errors and panics in either phase; a cancel set mid-run
// stops further claims and fails the run with workers.ErrCanceled; and a
// record's error outranks a concurrent cancel.
func TestChunkContractMapReduce(t *testing.T) {
	const n = 66
	items := value.Range(1, n, 1)
	index := func(v value.Value) int {
		f, _ := value.ToNumber(v)
		return int(f) - 1
	}
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	failing := map[int]bool{4: true, 20: true, 39: true}
	keyed := func(v value.Value) (string, value.Value, error) { return key(index(v)), v, nil }
	failingKey := func(k string) bool { return k == key(4) || k == key(20) || k == key(39) }
	cases := []struct {
		name string
		m    Mapper
		r    Reducer
		want string
	}{
		{"map error", func(v value.Value) (string, value.Value, error) {
			if i := index(v); failing[i] {
				return "", nil, fmt.Errorf("bad %d", i)
			}
			return "", v, nil
		}, CountReduce, "map item 5: bad 4"},
		{"map panic", func(v value.Value) (string, value.Value, error) {
			if i := index(v); failing[i] {
				panic(fmt.Sprintf("boom %d", i))
			}
			return "", v, nil
		}, CountReduce, "map item 5: mapper panic: boom 4"},
		{"reduce error", keyed, func(k string, vals *value.List) (value.Value, error) {
			if failingKey(k) {
				return nil, fmt.Errorf("bad %s", k)
			}
			return vals, nil
		}, `reduce key "k04": bad k04`},
		{"reduce panic", keyed, func(k string, vals *value.List) (value.Value, error) {
			if failingKey(k) {
				panic("boom " + k)
			}
			return vals, nil
		}, `reduce key "k04": reducer panic: boom k04`},
	}
	for _, w := range []int{1, 2, 3, 8} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("w=%d/%s", w, tc.name), func(t *testing.T) {
				if _, err := Run(items, tc.m, tc.r, Config{Workers: w}); err == nil || err.Error() != tc.want {
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
			})
		}
		t.Run(fmt.Sprintf("w=%d/cancel stops claims", w), func(t *testing.T) {
			// Every mapper call waits until the run is canceled, so only
			// the chunks already claimed may map an item.
			const big = 4096
			ready := make(chan struct{})
			var canceled atomic.Bool
			var mapped atomic.Int64
			m := func(v value.Value) (string, value.Value, error) {
				<-ready
				mapped.Add(1)
				return "", v, nil
			}
			errc := make(chan error, 1)
			go func() {
				_, err := Run(value.Range(1, big, 1), m, CountReduce, Config{Workers: w, Canceled: canceled.Load})
				errc <- err
			}()
			canceled.Store(true)
			close(ready)
			if err := <-errc; !errors.Is(err, workers.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if got, limit := mapped.Load(), int64(w*phaseGrain(big, w)); got > limit {
				t.Fatalf("mapped %d items after the cancel, want at most one chunk per executor (%d)", got, limit)
			}
		})
		if w == 1 {
			continue // a lone executor has nothing to run concurrently
		}
		t.Run(fmt.Sprintf("w=%d/error outranks cancel", w), func(t *testing.T) {
			// The executor holding item 1 waits until item n has failed on
			// another executor and the run is canceled.
			failed := make(chan struct{})
			release := make(chan struct{})
			var canceled atomic.Bool
			m := func(v value.Value) (string, value.Value, error) {
				switch i := index(v); i {
				case 0:
					<-release
				case n - 1:
					close(failed)
					return "", nil, fmt.Errorf("bad %d", i)
				}
				return "", v, nil
			}
			errc := make(chan error, 1)
			go func() {
				_, err := Run(items, m, CountReduce, Config{Workers: w, Canceled: canceled.Load})
				errc <- err
			}()
			<-failed
			canceled.Store(true)
			close(release)
			if err, want := <-errc, fmt.Sprintf("map item %d: bad %d", n, n-1); err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}
}
