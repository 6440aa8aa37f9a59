package runtime

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/vm"
)

// climateSrc is the classroom climate body: a mapReduce over 5,000
// numbers, far above the synchronous cutoff, so the session polls a
// worker job.
const climateSrc = `
	(project "climate"
	  (sprite "S"
	    (when green-flag (do
	      (say (mapreduce (ring (/ (* 5 (- _ 32)) 9))
	                      (ring (/ (combine _ (ring (+ _ _))) (length _)))
	                      (numbers 1 5000)))))))`

// climateSay is the trace line climateSrc's say leaves.
const climateSay = `[t=0] S says "1371.388888888889"`

// pmapSrc polls a parallelMap job over 2,000 items.
const pmapSrc = `
	(project "pmap"
	  (sprite "S"
	    (when green-flag (do
	      (say (length (parallelmap (ring (* _ 2)) (numbers 1 2000) 4)))))))`

// withVM runs f with the bytecode machine switched on or off.
func withVM(on bool, f func()) {
	prev := vm.Enabled()
	vm.SetEnabled(on)
	defer vm.SetEnabled(prev)
	f()
}

// TestWaitingSpendsNoBudget is the regression test for budgets charged by
// host speed: a session waiting on its parallel job parks instead of
// spinning rounds, so tight step and round budgets hold, and its Steps
// and Rounds are the same on every run.
func TestWaitingSpendsNoBudget(t *testing.T) {
	limits := []struct {
		name string
		lim  Limits
	}{{"max_steps=2000", Limits{MaxSteps: 2000}}, {"max_rounds=1000", Limits{MaxRounds: 1000}}}
	for _, src := range []struct{ name, src string }{{"climate", climateSrc}, {"parallelmap", pmapSrc}} {
		for _, on := range []bool{true, false} {
			for _, l := range limits {
				t.Run(fmt.Sprintf("%s/vm=%v/%s", src.name, on, l.name), func(t *testing.T) {
					withVM(on, func() {
						mgr := NewManager(Config{})
						project := mustProject(t, src.src)
						var first Result
						for run := 0; run < 20; run++ {
							s, err := mgr.Run(context.Background(), project, l.lim)
							if err != nil {
								t.Fatal(err)
							}
							res, _ := s.Result()
							if res.Status != StatusOK {
								t.Fatalf("run %d: status = %s (%s), want ok", run, res.Status, res.Error)
							}
							if run == 0 {
								first = res
								continue
							}
							if res.Steps != first.Steps || res.Rounds != first.Rounds {
								t.Fatalf("run %d: %d steps / %d rounds, run 0 had %d / %d",
									run, res.Steps, res.Rounds, first.Steps, first.Rounds)
							}
						}
					})
				})
			}
		}
	}
}

// busySrcs are the four parallel blocks, each given seconds of work: every
// element folds a 2000-number list inside the shipped ring, and there are
// 20000 elements. span is the kind of trace span the block's job records.
var busySrcs = []struct{ name, span, src string }{
	{"parallelmap", "parallel.map", parallelSrc},
	{"parallelkeep", "parallel.map", busyProject(`(parallelkeep
		(lambda (x) (< (combine (numbers 1 2000) (lambda (a b) (+ $a $b))) 0))
		(numbers 1 20000) 4)`)},
	{"parallelcombine", "parallel.reduce", busyProject(`(parallelcombine (numbers 1 20000)
		(lambda (a b) (+ $a (combine (numbers 1 2000) (lambda (c d) (+ $c $d)))))
		4)`)},
	{"mapreduce", "mapReduce", busyProject(`(mapreduce
		(lambda (x) (combine (numbers 1 2000) (lambda (a b) (+ $a $b))))
		(ring (length _))
		(numbers 1 20000))`)},
}

func busyProject(expr string) string {
	return `(project "busy" (sprite "S" (when green-flag (do (report ` + expr + `)))))`
}

// TestParkedSessionHonoursDeadline pins that a session parked on a slow
// parallel block still dies on its deadline, promptly, and takes its
// worker job down with it: the job's span, found under the session's
// trace ID, ends canceled.
func TestParkedSessionHonoursDeadline(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.ResetSpans()

	mgr := NewManager(Config{})
	const deadline = 50 * time.Millisecond
	for _, tc := range busySrcs {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			s, err := mgr.RunTraced(context.Background(), interp.NewPlan(mustProject(t, tc.src)), Limits{Timeout: deadline}, "parked-deadline-"+tc.name)
			if err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			res, _ := s.Result()
			if res.Status != StatusTimeout {
				t.Fatalf("status = %s (%s), want timeout", res.Status, res.Error)
			}
			if elapsed > 5*deadline {
				t.Fatalf("%v-deadline session took %v", deadline, elapsed)
			}
			if n := mgr.Stats().Running; n != 0 {
				t.Fatalf("Running = %d after the session ended", n)
			}
			// The canceled job resolves once its executors notice,
			// between elements or chunks.
			for end := time.Now().Add(3 * time.Second); ; {
				if jobCanceled(s.TraceID(), tc.span) {
					return
				}
				if time.Now().After(end) {
					t.Fatalf("no canceled %s span under %s", tc.span, s.TraceID())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

func jobCanceled(id, kind string) bool {
	for _, sp := range obs.SpansFor(id) {
		if sp.Kind == kind && slices.Contains(sp.Attrs, obs.Attr{Key: "status", Val: "canceled"}) {
			return true
		}
	}
	return false
}

// TestParkedSessionCanceled pins that canceling the request context ends
// a parked session as canceled instead of leaving it asleep on its job.
func TestParkedSessionCanceled(t *testing.T) {
	mgr := NewManager(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for mgr.Stats().Running == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	s, err := mgr.Run(ctx, mustProject(t, parallelSrc), Limits{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	if res.Status != StatusCanceled {
		t.Fatalf("status = %s (%s), want canceled", res.Status, res.Error)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled session took %v to end", elapsed)
	}
	if n := mgr.Stats().Running; n != 0 {
		t.Fatalf("Running = %d after the session ended", n)
	}
}

// TestPollerDoesNotStarveWorkersOnOneProc pins the case the scheduler's
// Gosched guards: on a single P, a session waiting on its job must let
// the job's workers run, both when it is the only process (it sleeps)
// and when a forever loop shares every round with the poller (it yields
// the thread once per round).
func TestPollerDoesNotStarveWorkersOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const deadline = 2 * time.Second
	mgr := NewManager(Config{})

	start := time.Now()
	s, err := mgr.Run(context.Background(), mustProject(t, climateSrc), Limits{Timeout: deadline})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	if res.Status != StatusOK || !slices.Contains(res.Trace, climateSay) {
		t.Fatalf("climate alone: status %s (%s), trace %q", res.Status, res.Error, res.Trace)
	}
	if elapsed := time.Since(start); elapsed > deadline/2 {
		t.Fatalf("climate alone took %v on one P", elapsed)
	}

	mixed := `
		(project "mixed"
		  (sprite "S"
		    (local x 0)
		    (when green-flag (do
		      (say (mapreduce (ring (/ (* 5 (- _ 32)) 9))
		                      (ring (/ (combine _ (ring (+ _ _))) (length _)))
		                      (numbers 1 5000)))))
		    (when green-flag (do
		      (forever (do (change x 1)))))))`
	// Budgets far above what the loop can spend in the deadline, so the
	// deadline is what ends it.
	s, err = mgr.Run(context.Background(), mustProject(t, mixed),
		Limits{Timeout: deadline, MaxSteps: 1 << 40, MaxRounds: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	// The forever loop runs until the deadline; the say must have landed
	// before it.
	if res.Status != StatusTimeout || !slices.Contains(res.Trace, climateSay) {
		t.Fatalf("mixed: status %s (%s), trace %q", res.Status, res.Error, res.Trace)
	}
}
