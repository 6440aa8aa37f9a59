package workers

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/value"
)

// Assignment selects how list elements are handed to workers when there are
// more elements than workers. Parallel.js says workers "systematically
// process the remaining elements from the list until completed" — a shared
// work queue, our Dynamic policy. Block and Interleaved are the static
// alternatives ablated in experiment E10.
type Assignment int

// The element-assignment policies.
const (
	// Dynamic hands each idle worker the next unprocessed element
	// (a shared queue; self-balancing under skew).
	Dynamic Assignment = iota
	// Block gives worker k the k-th contiguous chunk.
	Block
	// Interleaved gives worker k elements k, k+W, k+2W, ...
	Interleaved
)

// String names the policy.
func (a Assignment) String() string {
	switch a {
	case Dynamic:
		return "dynamic"
	case Block:
		return "block"
	case Interleaved:
		return "interleaved"
	}
	return fmt.Sprintf("assignment(%d)", int(a))
}

// Options configures a Parallel pool, mirroring Parallel.js's options
// object ({maxWorkers: 2} in Listing 1).
type Options struct {
	// MaxWorkers caps the worker count; 0 means DefaultWorkers().
	MaxWorkers int
	// Assignment picks the element-assignment policy; default Dynamic.
	Assignment Assignment
	// NoClone disables Map's structured clone at the worker boundary.
	// Real Web Workers cannot do this; the option exists only for the
	// clone-cost ablation bench and must stay off elsewhere.
	NoClone bool
	// Cost, when set, assigns a virtual cost to element i (0-based).
	// Each worker accumulates the cost of the elements it processes,
	// readable via Job.WorkerCosts — the instrumentation behind the
	// load-balance experiment E10. Setting Cost forces Grain to 1 so the
	// per-element assignment the ablation studies stays observable.
	Cost func(i int) int64
	// Grain is how many elements one dynamic fetch-add claims. 0 picks
	// an automatic grain that amortizes the shared-counter contention
	// while leaving enough chunks for load balance; 1 reproduces the
	// strict per-element queue of Parallel.js (and of E10).
	Grain int
	// Label tags the job's trace span (see internal/obs) so a session's
	// worker jobs can be found from its ID. Empty is fine; it only
	// matters when observability is enabled.
	Label string
}

// Parallel reproduces the Parallel.js entry point:
//
//	p := workers.New(list, workers.Options{MaxWorkers: 2})
//	job := p.Map(double)
//
// matching Listing 1's `new Parallel([1,2,3,4], {maxWorkers: 2}); p.map(...)`.
type Parallel struct {
	data *value.List
	opts Options
}

// New builds a pool over data.
func New(data *value.List, opts Options) *Parallel {
	if opts.MaxWorkers <= 0 {
		opts.MaxWorkers = DefaultWorkers()
	}
	return &Parallel{data: data, opts: opts}
}

// Data returns the pool's input list (Listing 1 reads p.data after the map;
// before any operation this is the input, afterwards use Job.Wait).
func (p *Parallel) Data() *value.List { return p.data }

// MaxWorkers reports the effective worker count for this pool.
func (p *Parallel) MaxWorkers() int { return p.opts.MaxWorkers }

// Job is an in-flight parallel operation. Listing 2 polls
// `p.operation._resolved` from the Snap! scheduler; Resolved is that flag.
type Job struct {
	canceled atomic.Bool
	done     chan struct{} // closed when the job resolves

	mu     sync.Mutex
	result *value.List
	err    error

	loads []int64 // elements processed per worker, for E10
	costs []int64 // virtual cost processed per worker, for E10
}

func newJob(workers int) *Job {
	return &Job{
		done:  make(chan struct{}),
		loads: make([]int64, workers),
		costs: make([]int64, workers),
	}
}

// Resolved reports, without blocking, whether the job has finished — the
// poll the paper's reportParallelMap performs on every runStep.
func (j *Job) Resolved() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Done is closed when the job resolves: a polling process parks on it
// (interp.Process.ParkOn) instead of spinning scheduler rounds.
func (j *Job) Done() <-chan struct{} { return j.done }

// ErrCanceled resolves a job whose work was canceled before completion —
// the Worker.terminate() of a pool operation (pressing the red stop button
// while workers grind).
var ErrCanceled = errors.New("parallel job canceled")

// Cancel asks the job's workers to stop after their current element. The
// job then resolves with ErrCanceled. Canceling a resolved job is a no-op.
func (j *Job) Cancel() { j.canceled.Store(true) }

// Wait blocks until the job resolves and returns its result.
func (j *Job) Wait() (*value.List, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// WorkerLoads reports how many elements each worker processed. Only valid
// after the job resolves.
func (j *Job) WorkerLoads() []int64 {
	out := make([]int64, len(j.loads))
	for i := range j.loads {
		out[i] = atomic.LoadInt64(&j.loads[i])
	}
	return out
}

// WorkerCosts reports each worker's accumulated virtual cost (see
// Options.Cost). Only valid after the job resolves.
func (j *Job) WorkerCosts() []int64 {
	out := make([]int64, len(j.costs))
	for i := range j.costs {
		out[i] = atomic.LoadInt64(&j.costs[i])
	}
	return out
}

// Go runs fn on a goroutine of its own as a Job: work that drives the
// shared pool itself (the mapReduce engine's phases) gets the same
// resolve, park and cancel surface as a pool operation. fn should poll
// j.Canceled between units of work and return ErrCanceled once it is set;
// a panic in fn fails the job, as a thrown exception in a worker does.
func Go(fn func(j *Job) (*value.List, error)) *Job {
	job := newJob(0)
	go func() { job.finish(safeGo(fn, job)) }()
	return job
}

func safeGo(fn func(j *Job) (*value.List, error), j *Job) (res *value.List, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("worker script error: %v", r)
		}
	}()
	return fn(j)
}

func (j *Job) finish(result *value.List, err error) {
	j.mu.Lock()
	j.result, j.err = result, err
	j.mu.Unlock()
	close(j.done)
}

// grain resolves the effective dynamic-assignment grain for n elements on
// w workers: the configured Grain, forced to 1 when per-element cost
// instrumentation is on (the E10 ablation observes element-level
// assignment), else an automatic chunk that amortizes the shared
// fetch-add while leaving ~4 chunks per worker for balance.
func (p *Parallel) grain(n, w int) int {
	if p.opts.Cost != nil {
		return 1
	}
	if p.opts.Grain > 0 {
		return p.opts.Grain
	}
	g := n / (w * 4)
	if g > 64 {
		g = 64
	}
	// Floor the grain so a chunk is worth its shared-counter claim even
	// when the per-element work is a compiled kernel of a few tens of
	// nanoseconds — but never so high that a worker cannot get at least
	// one chunk of an evenly split list.
	lo := (n + w - 1) / w
	if lo > 8 {
		lo = 8
	}
	if g < lo {
		g = lo
	}
	if g < 1 {
		g = 1
	}
	return g
}

// ChunkHandler processes one contiguous chunk of a parallel map: src holds
// the input elements starting at 0-based list index base, and every result
// must be stored into the parallel dst slice. The handler owns the worker
// boundary for its chunk — cloning elements in and results out, amortizing
// any per-worker setup (a reusable interpreter Process, a compiled kernel's
// argument buffer) across the whole chunk instead of paying it per element.
// It should poll j.Canceled() between elements and bail with ErrCanceled;
// any other error fails the job (wrap it as "element %d: ..." with the
// 1-based index base+i+1 to match the per-element contract).
type ChunkHandler func(j *Job, base int, dst, src []value.Value) error

// Canceled reports whether Cancel has been called. ChunkHandlers poll this
// between elements so a long chunk still stops promptly.
func (j *Job) Canceled() bool { return j.canceled.Load() }

// Map applies fn to every element of the pool's data on the worker pool and
// resolves to the list of results in input order. Each element is
// structured-cloned into its worker and each result cloned back out, the
// postMessage discipline. Map is the per-element adapter over MapChunks;
// callers that can amortize work across a whole chunk use MapChunks
// directly.
func (p *Parallel) Map(fn Handler) *Job {
	clone := !p.opts.NoClone
	return p.MapChunks(func(j *Job, base int, dst, src []value.Value) error {
		for i, in := range src {
			if j.Canceled() {
				return ErrCanceled
			}
			if clone {
				in = safeClone(in)
			}
			out, err := runHandler(fn, in)
			if err != nil {
				return fmt.Errorf("element %d: %w", base+i+1, err)
			}
			if clone {
				out = safeClone(out)
			}
			dst[i] = out
		}
		return nil
	})
}

// MapChunks is the chunk-level map primitive behind Map. The work runs on
// the persistent SharedPool through the one chunk loop (chunkLoop): one
// executor per requested worker, each claiming chunks in grain-sized
// slices off a shared atomic counter (Dynamic) or by its static schedule
// (Block gets one contiguous chunk per worker, Interleaved degenerates to
// single-element chunks). The last executor to finish resolves the job,
// so an operation costs zero goroutine spawns when the pool has idle
// workers.
func (p *Parallel) MapChunks(fn ChunkHandler) *Job {
	n := p.data.Len()
	w := clampWorkers(p.opts.MaxWorkers, n)
	job := newJob(w)
	if n == 0 {
		// Nothing to map: resolve synchronously with an empty result
		// instead of spinning up executor scaffolding.
		job.finish(value.NewList(), nil)
		return job
	}
	// tracing gates every instrumented site in this operation on one
	// atomic load taken up front, so the disabled path costs a branch and
	// zero allocations.
	tracing := obs.Enabled()
	var jobStart time.Time
	if tracing {
		jobStart = time.Now()
		obs.PoolJobs.With("map").Inc()
	}
	items := p.data.Items()
	results := make([]value.Value, n)
	l := &chunkLoop{n: n, w: w, grain: p.grain(n, w), assign: p.opts.Assignment,
		allWorkers: p.opts.Cost != nil, canceled: job.Canceled, tracing: tracing}
	l.fn = func(worker, lo, hi int) error {
		if err := fn(job, lo, results[lo:hi], items[lo:hi]); err != nil {
			if errors.Is(err, ErrCanceled) {
				return ErrCanceled // however the handler wrapped it
			}
			return err
		}
		atomic.AddInt64(&job.loads[worker], int64(hi-lo))
		if p.opts.Cost != nil {
			var c int64
			for i := lo; i < hi; i++ {
				c += p.opts.Cost(i)
			}
			atomic.AddInt64(&job.costs[worker], c)
		}
		return nil
	}
	l.resolve = func(err error) {
		var res *value.List
		if err == nil {
			res = value.NewList(results...)
		}
		if tracing {
			p.traceJobEnd("parallel.map", jobStart, n, w, l.chunks.Load(), err)
		}
		job.finish(res, err)
	}
	l.start()
	return job
}

// traceJobEnd records a finished job's wall time and its trace span.
// Only called on the tracing path, so the allocations here never touch a
// disabled run.
func (p *Parallel) traceJobEnd(kind string, start time.Time, n, w int, chunks int64, err error) {
	dur := time.Since(start)
	obs.PoolJobSeconds.Observe(dur.Seconds())
	status := "ok"
	switch {
	case errors.Is(err, ErrCanceled):
		status = "canceled"
	case err != nil:
		status = "error"
	}
	obs.RecordSpan(obs.Span{
		ID:    p.opts.Label,
		Kind:  kind,
		Start: start,
		Dur:   dur,
		Attrs: []obs.Attr{
			obs.AttrInt("n", int64(n)),
			obs.AttrInt("workers", int64(w)),
			obs.AttrInt("chunks", chunks),
			{Key: "assignment", Val: p.opts.Assignment.String()},
			{Key: "status", Val: status},
		},
	})
}

// ReduceFunc combines two values; it must be associative for the parallel
// reduction to be deterministic up to association.
type ReduceFunc func(a, b value.Value) (value.Value, error)

// Reduce folds the pool's data with fn: each worker folds one contiguous
// chunk (the chunk loop's Block assignment) into its partial, then the
// last worker to finish folds the partials left-to-right and resolves the
// job. The empty list resolves to Nothing. The operands are the data's
// own elements, not clones: the caller ships the pool a list private to
// the job, as the parallel blocks do.
func (p *Parallel) Reduce(fn ReduceFunc) *Job {
	n := p.data.Len()
	w := clampWorkers(p.opts.MaxWorkers, n)
	job := newJob(w)
	if n == 0 {
		job.finish(value.NewList(value.Nothing{}), nil)
		return job
	}
	tracing := obs.Enabled()
	var jobStart time.Time
	if tracing {
		jobStart = time.Now()
		obs.PoolJobs.With("reduce").Inc()
	}
	items := p.data.Items()
	partials := make([]value.Value, w)
	l := &chunkLoop{n: n, w: w, assign: Block, canceled: job.Canceled, tracing: tracing}
	l.fn = func(worker, lo, hi int) error {
		acc := items[lo]
		atomic.AddInt64(&job.loads[worker], 1)
		for i := lo + 1; i < hi; i++ {
			if job.Canceled() {
				return ErrCanceled
			}
			out, err := fn(acc, items[i])
			if err != nil {
				return err
			}
			acc = out
			atomic.AddInt64(&job.loads[worker], 1)
		}
		partials[worker] = acc
		return nil
	}
	l.resolve = func(err error) {
		var acc value.Value
		for _, part := range partials {
			if err != nil {
				break
			}
			switch {
			case part == nil:
			case acc == nil:
				acc = part
			default:
				acc, err = runReduce(fn, acc, part)
			}
		}
		var res *value.List
		if err == nil {
			res = value.NewList(acc)
		}
		if tracing {
			p.traceJobEnd("parallel.reduce", jobStart, n, w, l.chunks.Load(), err)
		}
		job.finish(res, err)
	}
	l.start()
	return job
}

func runReduce(fn ReduceFunc, a, b value.Value) (out value.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("worker script error: %v", r)
		}
	}()
	return fn(a, b)
}
