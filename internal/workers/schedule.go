package workers

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// chunkLoop is one parallel loop over [0, n): up to w executors on the
// SharedPool hand fn the chunks their assignment gives them, and the last
// executor to stop resolves the loop exactly once. Every parallel job
// runs through it — MapChunks, Reduce, and the MapReduce engine's phases
// by way of RunChunks — so submission, cancel polling, panic containment
// and the choice of the reported error are written once.
type chunkLoop struct {
	n, w, grain int
	assign      Assignment
	// allWorkers starts every Dynamic executor up front instead of
	// cascading. The Cost instrumentation behind E10 must observe the
	// full w-way assignment, and a caller that only waits for the loop
	// (RunChunks) gets its executors running sooner this way
	// (docs/PERFORMANCE.md, "One chunk scheduler").
	allWorkers bool
	// canceled is polled before every chunk; nil never cancels.
	canceled func() bool
	// tracing moves the engine_pool_* claim and chunk series. The caller
	// reads the switch once, so one job's metrics are internally
	// consistent even if it flips mid-flight.
	tracing bool
	// fn runs [lo, hi) as executor worker. It returns ErrCanceled itself
	// when it sees the cancel mid-chunk; any other error, even one that
	// wraps ErrCanceled, fails the chunk.
	fn func(worker, lo, hi int) error
	// resolve receives the loop's outcome, once.
	resolve func(err error)

	// Every claim writes next, so it keeps off the cache line of the
	// fields above, which every chunk reads. chunks is written once per
	// executor, as it stops: each executor counts its own chunks.
	_       [64]byte
	next    atomic.Int64 // Dynamic's claim counter
	pending atomic.Int32 // executors started and not yet stopped
	stopped atomic.Bool  // a cancel was seen
	chunks  atomic.Int64 // chunks run, counted only while tracing
	failMu  sync.Mutex
	failLo  int
	failErr error
}

// start launches the executors. Dynamic, unless allWorkers, enlists
// them in a cascade: executor k enlists executor k+1 only while
// unclaimed work remains. On idle cores the chain unrolls to all w
// executors almost immediately; on a saturated machine a fast executor
// drains the queue before the chain grows, so a small job pays for the
// wakeups it can use instead of w of them. Block gives each executor
// one contiguous chunk, and Interleaved gives executor k the
// single-element chunks k, k+w, k+2w, ...
func (l *chunkLoop) start() {
	switch {
	case l.n == 0:
		l.resolve(nil)
	case l.assign == Dynamic && !l.allWorkers:
		l.pending.Store(1)
		l.spawn(0)
	case l.assign == Block:
		l.grain = (l.n + l.w - 1) / l.w
		active := (l.n + l.grain - 1) / l.grain
		l.pending.Store(int32(active))
		for k := 0; k < active; k++ {
			l.spawn(k)
		}
	default:
		l.pending.Store(int32(l.w))
		for k := 0; k < l.w; k++ {
			l.spawn(k)
		}
	}
}

// spawn runs executor worker on the SharedPool: the one place any
// parallel job submits work to it.
func (l *chunkLoop) spawn(worker int) {
	SharedPool().Submit(func() { l.executor(worker) })
}

func (l *chunkLoop) executor(worker int) {
	var ran int64 // chunks run, counted only while tracing
	defer func() { l.exit(ran) }()
	switch l.assign {
	case Dynamic:
		// pending counts the enlisted executor before it is submitted,
		// so the loop cannot resolve while a link of the chain is still
		// in flight.
		if !l.allWorkers && worker+1 < l.w && int(l.next.Load()) < l.n {
			l.pending.Add(1)
			if l.tracing {
				obs.PoolCascadeEnlists.Inc()
			}
			l.spawn(worker + 1)
		}
		for l.claim(worker, &ran) {
		}
	case Block:
		lo := worker * l.grain
		l.run(worker, lo, min(lo+l.grain, l.n), &ran)
	case Interleaved:
		for i := worker; i < l.n && l.run(worker, i, i+1, &ran); i += l.w {
		}
	}
}

// claim takes the next grain-sized chunk off the shared counter and runs
// it; false means stop claiming.
func (l *chunkLoop) claim(worker int, ran *int64) bool {
	lo := int(l.next.Add(int64(l.grain))) - l.grain
	if lo >= l.n {
		if l.tracing {
			obs.PoolClaimsEmpty.Inc()
		}
		return false
	}
	if l.tracing {
		obs.PoolClaims.Inc()
	}
	return l.run(worker, lo, min(lo+l.grain, l.n), ran)
}

// run hands [lo, hi) to fn unless the loop was canceled, counting the
// chunk in ran while tracing; false means the executor stops. A failing
// chunk stops at its first failing element, chunks are disjoint, and
// every chunk below a claimed one was claimed too, so keeping the lowest
// failing chunk's error reports the lowest failing element whatever the
// worker count or timing.
func (l *chunkLoop) run(worker, lo, hi int, ran *int64) bool {
	if l.canceled != nil && l.canceled() {
		l.stopped.Store(true)
		return false
	}
	var err error
	if l.tracing {
		start := time.Now()
		err = l.call(worker, lo, hi)
		obs.PoolChunkSeconds.Observe(time.Since(start).Seconds())
		obs.PoolChunks.Inc()
		*ran++
	} else {
		err = l.call(worker, lo, hi)
	}
	switch {
	case err == nil:
		return true
	case err == ErrCanceled:
		l.stopped.Store(true)
	default:
		l.failMu.Lock()
		if l.failErr == nil || lo < l.failLo {
			l.failLo, l.failErr = lo, err
		}
		l.failMu.Unlock()
	}
	return false
}

// call runs fn, turning a panic into the chunk's error the way a thrown
// exception inside a Web Worker surfaces as onerror instead of crashing
// the page.
func (l *chunkLoop) call(worker, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("worker script error: %v", r)
		}
	}()
	return l.fn(worker, lo, hi)
}

// exit retires an executor, adding the chunks it ran to the loop's
// count; the last one resolves the loop. pending's final decrement orders every executor's writes before
// outcome reads them.
func (l *chunkLoop) exit(chunks int64) {
	if chunks > 0 {
		l.chunks.Add(chunks)
	}
	if l.pending.Add(-1) == 0 {
		l.resolve(l.outcome())
	}
}

// outcome is the finished loop's result: the lowest failing chunk's
// error, which outranks cancellation, else ErrCanceled if a cancel was
// seen, else nil.
func (l *chunkLoop) outcome() error {
	if l.failErr == nil && l.stopped.Load() {
		return ErrCanceled
	}
	return l.failErr
}

// clampWorkers is the executor count for n elements on w requested
// workers: never more than a non-empty input's elements, never fewer
// than one.
func clampWorkers(w, n int) int {
	if w > n && n > 0 {
		w = n
	}
	return max(w, 1)
}

// RunChunks runs fn over [0, n) on up to w executors of the SharedPool,
// all started at once, each claiming grain-sized chunks off one counter,
// and returns once all of them have stopped: with the lowest failing
// chunk's error, else ErrCanceled if canceled (nil never cancels)
// reported true before a chunk, else nil. A panic in fn becomes a
// "worker script error". It is the blocking form of the loop behind
// MapChunks, for work that already owns a goroutine, and it moves none
// of the loop's claim, chunk or cascade series.
func RunChunks(n, w, grain int, canceled func() bool, fn func(worker, lo, hi int) error) error {
	done := make(chan struct{})
	l := &chunkLoop{n: n, w: clampWorkers(w, n), grain: max(grain, 1), allWorkers: true, canceled: canceled, fn: fn,
		resolve: func(error) { close(done) }}
	l.start()
	<-done
	return l.outcome()
}
