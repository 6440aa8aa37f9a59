package core

import (
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/parse"
	"repro/internal/value"
)

// TestResolvedJobsLeaveNoDeathHook is the regression test for death hooks
// that outlived their jobs: each evaluation of a parallel block chained a
// hook holding its job — and so the job's result — onto the process, for
// as long as the process lived. A process that has looped over three
// jobs, and is still running, must hold no hook at all.
func TestResolvedJobsLeaveNoDeathHook(t *testing.T) {
	for _, tc := range []struct{ name, expr string }{
		{"parallelmap", `(parallelmap (ring (* _ 2)) (numbers 1 100) 2)`},
		{"parallelkeep", `(parallelkeep (ring (> _ 10)) (numbers 1 100) 2)`},
		{"parallelcombine", `(parallelcombine (numbers 1 100) (ring (+ _ _)) 2)`},
		{"mapreduce", `(mapreduce (ring (list _ 1)) (ring (length _)) (numbers 1 100))`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pr, err := parse.Project(`
				(project "loop"
				  (global n 0)
				  (global r 0)
				  (sprite "S"
				    (when green-flag (do
				      (repeat 3 (do (set r ` + tc.expr + `) (change n 1)))
				      (forever (change n 0))))))`)
			if err != nil {
				t.Fatal(err)
			}
			m := interp.NewMachine(pr, nil)
			procs := m.GreenFlag()
			defer m.Kill()
			deadline := time.Now().Add(10 * time.Second)
			for {
				m.Step()
				if n, _ := m.GlobalFrame().Get("n"); n == value.Number(3) {
					break
				}
				if procs[0].Done() || time.Now().After(deadline) {
					t.Fatalf("loop did not finish: done=%v err=%v", procs[0].Done(), procs[0].Err())
				}
			}
			if procs[0].OnDone != nil {
				t.Fatal("the process still holds a death hook after its jobs resolved")
			}
		})
	}
}
