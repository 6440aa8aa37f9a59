package workers

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/value"
)

func ident(v value.Value) (value.Value, error) { return v, nil }

// TestMapEmptyListResolvesImmediately is the regression test for the n==0
// bugfix: mapping an empty list must complete the job synchronously with
// an empty result list, with no goroutine scaffolding.
func TestMapEmptyListResolvesImmediately(t *testing.T) {
	p := New(value.NewList(), Options{MaxWorkers: 4})
	job := p.Map(double)
	if !job.Resolved() {
		t.Fatal("empty map should resolve synchronously, before any poll")
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("result = %s, want empty list", res)
	}
}

// TestReduceEmptyListResolvesImmediately pins the analogous Reduce path.
func TestReduceEmptyListResolvesImmediately(t *testing.T) {
	p := New(value.NewList(), Options{MaxWorkers: 4})
	job := p.Reduce(func(a, b value.Value) (value.Value, error) { return a, nil })
	if !job.Resolved() {
		t.Fatal("empty reduce should resolve synchronously")
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !value.IsNothing(res.MustItem(1)) {
		t.Fatalf("result = %s, want [Nothing]", res)
	}
}

// TestMapGrainEquivalence checks that every grain setting produces the
// same ordered result as the strict per-element queue: chunked dynamic
// assignment must be invisible except in performance.
func TestMapGrainEquivalence(t *testing.T) {
	in := value.Range(1, 103, 1) // odd size to exercise ragged final chunks
	want := ""
	for _, grain := range []int{0, 1, 2, 7, 64, 1000} {
		for _, w := range []int{1, 2, 5} {
			p := New(in, Options{MaxWorkers: w, Grain: grain})
			res, err := p.Map(double).Wait()
			if err != nil {
				t.Fatalf("grain=%d w=%d: %v", grain, w, err)
			}
			if want == "" {
				want = res.String()
			}
			if got := res.String(); got != want {
				t.Fatalf("grain=%d w=%d: result diverged", grain, w)
			}
			// Every element must be accounted to exactly one worker.
			var total int64
			job := p.Map(double)
			job.Wait()
			for _, l := range job.WorkerLoads() {
				total += l
			}
			if total != int64(in.Len()) {
				t.Fatalf("grain=%d w=%d: loads sum %d, want %d", grain, w, total, in.Len())
			}
		}
	}
}

// TestMapPoliciesEquivalent checks Block and Interleaved still agree with
// Dynamic on the pooled execution path.
func TestMapPoliciesEquivalent(t *testing.T) {
	in := value.Range(1, 50, 1)
	want, err := New(in, Options{MaxWorkers: 3}).Map(double).Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Assignment{Block, Interleaved} {
		res, err := New(in, Options{MaxWorkers: 3, Assignment: a}).Map(double).Wait()
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.String() != want.String() {
			t.Fatalf("%s result diverged from dynamic", a)
		}
	}
}

// TestCostForcesPerElementGrain pins the E10 contract: with cost
// instrumentation on, assignment stays per-element so the ablation's
// element-level accounting is exact.
func TestCostForcesPerElementGrain(t *testing.T) {
	in := value.Range(1, 40, 1)
	p := New(in, Options{MaxWorkers: 4, Grain: 16, Cost: func(i int) int64 { return 1 }})
	if g := p.grain(in.Len(), 4); g != 1 {
		t.Fatalf("grain with Cost set = %d, want 1", g)
	}
	job := p.Map(double)
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range job.WorkerCosts() {
		total += c
	}
	if total != 40 {
		t.Fatalf("cost sum = %d, want 40", total)
	}
}

// TestPoolReuse checks that a stream of jobs runs on the persistent
// workers rather than spawning per-job goroutines: with an idle pool and
// sequential jobs, nothing should spill beyond the pool size per job.
func TestPoolReuse(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for round := 0; round < 50; round++ {
		wg.Add(1)
		pool.Submit(func() {
			ran.Add(1)
			wg.Done()
		})
		wg.Wait()
		// Give the pool worker time to loop back into its receive;
		// wg.Done unblocks us before the worker has re-parked, and a
		// handoff only succeeds against a parked worker.
		runtime.Gosched()
		runtime.Gosched()
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", ran.Load())
	}
	if sp := pool.Spilled(); sp > 25 {
		t.Errorf("sequential submissions spilled %d/50 times; pool is not being reused", sp)
	}
}

// TestPoolSpillUnderSaturation checks the no-deadlock property: more
// concurrent tasks than workers must all run (the excess on fresh
// goroutines), including tasks submitted from inside pool tasks.
func TestPoolSpillUnderSaturation(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	var wg sync.WaitGroup
	inner := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		pool.Submit(func() {
			defer wg.Done()
			// Nested submission while (possibly) occupying a pool
			// worker: must make progress, not queue behind us.
			done := make(chan struct{})
			pool.Submit(func() { close(done) })
			<-done
			<-inner
		})
	}
	close(inner)
	wg.Wait()
}

// TestMapManyConcurrentJobs runs several jobs against the shared pool at
// once; results must not interleave across jobs.
func TestMapManyConcurrentJobs(t *testing.T) {
	var wg sync.WaitGroup
	for j := 0; j < 8; j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := value.Range(float64(j*100), float64(j*100+99), 1)
			res, err := New(in, Options{MaxWorkers: 3}).Map(ident).Wait()
			if err != nil {
				t.Error(err)
				return
			}
			if res.Len() != 100 || res.MustItem(1).String() != fmt.Sprint(j*100) {
				t.Errorf("job %d corrupted: %s", j, res.MustItem(1))
			}
		}()
	}
	wg.Wait()
}

// TestMapReportsLowestFailingElement pins worker-count invariance of the
// error wording: when every element fails, the job names element 1 at any
// worker count and under every assignment policy, never whichever
// executor happened to fail first in time.
func TestMapReportsLowestFailingElement(t *testing.T) {
	fail := func(v value.Value) (value.Value, error) {
		return nil, fmt.Errorf("cannot take %s", v)
	}
	in := value.Range(1, 64, 1)
	const want = "element 1: cannot take 1"
	for _, a := range []Assignment{Dynamic, Block, Interleaved} {
		for _, w := range []int{1, 4} {
			for rep := 0; rep < 20; rep++ {
				_, err := New(in, Options{MaxWorkers: w, Assignment: a}).Map(fail).Wait()
				if err == nil || err.Error() != want {
					t.Fatalf("%s, %d workers, run %d: err = %v, want %q", a, w, rep, err, want)
				}
			}
		}
	}
}

// TestGoResolvesLikeAPoolJob pins workers.Go: fn's result and error
// resolve the job, fn sees the job's cancel flag, and a panic fails the
// job instead of the process.
func TestGoResolvesLikeAPoolJob(t *testing.T) {
	res, err := Go(func(j *Job) (*value.List, error) { return value.FromInts([]int{1, 2}), nil }).Wait()
	if err != nil || res.String() != "[1 2]" {
		t.Fatalf("Go = %v, %v", res, err)
	}
	release := make(chan struct{})
	job := Go(func(j *Job) (*value.List, error) {
		<-release
		if j.Canceled() {
			return nil, ErrCanceled
		}
		return value.NewList(), nil
	})
	job.Cancel()
	close(release)
	if _, err := job.Wait(); err != ErrCanceled {
		t.Fatalf("canceled Go job: err = %v, want ErrCanceled", err)
	}
	if _, err := Go(func(j *Job) (*value.List, error) { panic("kaboom") }).Wait(); err == nil || err.Error() != "worker script error: kaboom" {
		t.Fatalf("panicking Go job: err = %v", err)
	}
}
