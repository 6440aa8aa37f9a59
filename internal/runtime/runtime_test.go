package runtime

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blocks"
	"repro/internal/parse"
)

func mustProject(t *testing.T, src string) *blocks.Project {
	t.Helper()
	p, err := parse.Project(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const foreverSrc = `
	(project "forever"
	  (sprite "S"
	    (local x 0)
	    (when green-flag (do
	      (forever (do (change x 1)))))))`

const quickSrc = `
	(project "quick"
	  (sprite "S"
	    (when green-flag (do
	      (forward 10)
	      (say "done")))))`

// parallelSrc keeps workers busy long enough for a deadline to land in the
// middle of the map: every element folds a 2000-number list inside the
// shipped ring, and there are 20000 elements — seconds of work uncanceled.
const parallelSrc = `
	(project "busy"
	  (sprite "S"
	    (when green-flag (do
	      (report (parallelmap
	        (lambda (x) (combine (numbers 1 2000) (lambda (a b) (+ $a $b))))
	        (numbers 1 20000) 4))))))`

func TestSessionRunsToCompletion(t *testing.T) {
	mgr := NewManager(Config{})
	s, err := mgr.Run(context.Background(), mustProject(t, quickSrc), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	res, done := s.Result()
	if !done {
		t.Fatal("Run returned but session not done")
	}
	if res.Status != StatusOK {
		t.Fatalf("status = %s (%s), want ok", res.Status, res.Error)
	}
	if res.Scripts != 1 || res.Rounds == 0 || res.Steps == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if len(res.Trace) == 0 || len(res.Stage) == 0 {
		t.Fatal("result lost the stage trace/snapshot")
	}
}

func TestDeadlineKillsForeverWithinTwice(t *testing.T) {
	mgr := NewManager(Config{})
	start := time.Now()
	s, err := mgr.Run(context.Background(), mustProject(t, foreverSrc), Limits{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	res, _ := s.Result()
	if res.Status != StatusTimeout {
		t.Fatalf("status = %s (%s), want timeout", res.Status, res.Error)
	}
	// Acceptance: structured timeout within ~2x the deadline.
	if elapsed > 200*time.Millisecond {
		t.Fatalf("100ms-deadline session took %v", elapsed)
	}
}

func TestStepBudgetKill(t *testing.T) {
	mgr := NewManager(Config{})
	s, err := mgr.Run(context.Background(), mustProject(t, foreverSrc), Limits{MaxSteps: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	if res.Status != StatusSteps {
		t.Fatalf("status = %s (%s), want step-budget", res.Status, res.Error)
	}
}

func TestProgramErrorStatus(t *testing.T) {
	mgr := NewManager(Config{})
	src := `
		(project "boom"
		  (sprite "S"
		    (when green-flag (do
		      (report (item 99 (list 1 2)))))))`
	s, err := mgr.Run(context.Background(), mustProject(t, src), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	if res.Status != StatusError || res.Error == "" {
		t.Fatalf("status = %s (%q), want error with message", res.Status, res.Error)
	}
}

func TestLimitsClampToCeiling(t *testing.T) {
	mgr := NewManager(Config{
		Defaults: Limits{Timeout: time.Second, MaxSteps: 1000, MaxRounds: 1000, MaxTraceLines: 10},
		Ceiling:  Limits{Timeout: 2 * time.Second, MaxSteps: 2000, MaxRounds: 2000, MaxTraceLines: 20},
	})
	// Ask for far more than the ceiling allows: the forever loop must die
	// on the clamped 2000-step budget, not run for the requested billion.
	s, err := mgr.Run(context.Background(), mustProject(t, foreverSrc),
		Limits{MaxSteps: 1_000_000_000, MaxRounds: 1_000_000_000, Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	if res.Status != StatusSteps {
		t.Fatalf("status = %s (%s), want step-budget from the clamped ceiling", res.Status, res.Error)
	}
	if res.Steps > 4000 {
		t.Fatalf("ran %d steps; ceiling of 2000 not applied", res.Steps)
	}
}

func TestAdmissionQueuesThenRejects(t *testing.T) {
	mgr := NewManager(Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueWait:     2 * time.Second,
		Defaults:      Limits{Timeout: time.Second, MaxSteps: 100_000_000, MaxRounds: 100_000_000, MaxTraceLines: 100},
	})
	long := mustProject(t, foreverSrc)

	var wg sync.WaitGroup
	results := make([]error, 3)
	statuses := make([]Status, 3)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := mgr.Run(context.Background(), long, Limits{Timeout: 300 * time.Millisecond})
			results[i] = err
			if err == nil {
				res, _ := s.Result()
				statuses[i] = res.Status
			}
		}()
		// Stagger so the roles are deterministic: 0 runs, 1 queues, 2 overflows.
		time.Sleep(50 * time.Millisecond)
	}
	wg.Wait()

	admitted, rejected := 0, 0
	for i, err := range results {
		switch {
		case err == nil:
			admitted++
			if statuses[i] != StatusTimeout {
				t.Errorf("session %d status = %s, want timeout", i, statuses[i])
			}
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Errorf("session %d unexpected error: %v", i, err)
		}
	}
	if admitted != 2 || rejected != 1 {
		t.Fatalf("admitted=%d rejected=%d, want 2 queued-through and 1 rejection", admitted, rejected)
	}
	st := mgr.Stats()
	if st.Rejected != 1 || st.Admitted != 2 {
		t.Fatalf("stats = %+v, want admitted 2 / rejected 1", st)
	}
}

func TestKilledSessionCancelsWorkerJobs(t *testing.T) {
	mgr := NewManager(Config{})
	// Warm the shared pool so its persistent workers are part of the
	// baseline, then measure goroutines before the killed session.
	warm, err := mgr.Run(context.Background(), mustProject(t, quickSrc), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	<-warm.Done()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	s, err := mgr.Run(context.Background(), mustProject(t, parallelSrc), Limits{Timeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	if res.Status != StatusTimeout {
		t.Fatalf("status = %s (%s), want timeout", res.Status, res.Error)
	}
	// The session's worker-pool job must be canceled with it: goroutines
	// fall back to (near) the baseline instead of grinding through the
	// remaining 5000 elements.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stuck at %d (baseline %d): worker job not canceled",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSessionCancelAndRegistry(t *testing.T) {
	mgr := NewManager(Config{})
	var s *Session
	var runErr error
	p := mustProject(t, foreverSrc)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		s, runErr = mgr.Run(context.Background(), p, Limits{Timeout: 5 * time.Second})
	}()
	// Find the session via the registry once it appears, then cancel it.
	var live *Session
	deadline := time.Now().Add(2 * time.Second)
	for live == nil {
		if time.Now().After(deadline) {
			t.Fatal("session never registered")
		}
		mgr.mu.Lock()
		for _, sess := range mgr.sessions {
			live = sess
		}
		mgr.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	for live.State() != StateRunning && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	live.Cancel()
	<-finished
	if runErr != nil {
		t.Fatal(runErr)
	}
	res, done := s.Result()
	if !done || res.Status != StatusCanceled {
		t.Fatalf("canceled session: done=%v status=%s (%s)", done, res.Status, res.Error)
	}
	if mgr.Session(s.ID()) != s {
		t.Fatal("finished session fell out of the registry")
	}
}

// TestFinishedSessionReleasesMachine: the manager keeps finished sessions
// for GET /v1/sessions, but not their machines. The finalizer sits on the
// machine's stage timer, which only the machine reaches: a machine is in
// a cycle with its processes, and a finalizer on an object in a cycle
// need never run.
func TestFinishedSessionReleasesMachine(t *testing.T) {
	mgr := NewManager(Config{})
	collected := make(chan struct{})
	ran := make(chan *Session, 1)
	go func() {
		s, err := mgr.Run(context.Background(), mustProject(t, foreverSrc), Limits{Timeout: 200 * time.Millisecond})
		if err != nil {
			t.Error(err)
		}
		ran <- s
	}()
	deadline := time.Now().Add(5 * time.Second)
	for watched := false; !watched; {
		if time.Now().After(deadline) {
			t.Fatal("the session never started running")
		}
		mgr.mu.Lock()
		for _, s := range mgr.sessions {
			s.mu.Lock()
			if s.machine != nil {
				runtime.SetFinalizer(s.machine.Stage.Timer, func(any) { close(collected) })
				watched = true
			}
			s.mu.Unlock()
		}
		mgr.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	s := <-ran
	// The manager and the session stay live through the collections below.
	defer runtime.KeepAlive(mgr)
	defer runtime.KeepAlive(s)
	if res, done := s.Result(); !done || len(res.Trace) != len(s.TraceLines()) {
		t.Fatalf("session not done, or its trace lost: %+v", res)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a finished session still holds its machine")
}
