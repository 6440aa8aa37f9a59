// Package core implements the paper's primary contribution: the explicitly
// parallel blocks added to Snap! — parallelMap (§3.2), parallelForEach in
// its parallel and sequential modes (§3.3), and mapReduce (§3.4) — together
// with their integration into the cooperative interpreter via the
// poll-and-yield pattern of §4's Listing 2.
//
// parallelMap and mapReduce achieve true parallelism: the user's ring is
// shipped to Web-Worker-equivalent goroutines (package workers) and runs
// concurrently with the interpreter thread, which keeps polling the job's
// resolved flag and yielding — keeping the "browser" responsive, the
// paper's stated motivation for Web Workers. A poll that finds the job
// unresolved parks the process on it (interp.Process.ParkOn), so a
// machine whose every process waits on a job sleeps until one resolves,
// the way the browser's event loop idles between frames, instead of
// spinning scheduler rounds. parallelMap, parallelKeep, parallelCombine
// and mapReduce all run that pattern through one helper, awaitJob, which
// also ships each job a private copy of its input list and cancels the
// job when its process dies. parallelForEach demonstrates
// parallelism inside the stage world by spawning sprite clones that execute
// the nested script concurrently under the scheduler.
//
// Importing this package (even blank) registers the blocks with the
// interpreter.
package core

import (
	"errors"
	"fmt"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
	// Linked for its init, which installs the bytecode machine's spawn
	// hook: every program that registers the parallel blocks runs its
	// scripts on the VM.
	_ "repro/internal/vm"
	"repro/internal/workers"
)

func init() {
	interp.RegisterPrimitive("reportParallelMap", primParallelMap)
	interp.RegisterPrimitive("doParallelForEach", primParallelForEach)
	interp.RegisterPrimitive("snapWorkerLoop", primWorkerLoop)
}

// WorkerBudget caps the evaluator steps of one function call inside a
// worker, guarding against non-terminating user functions.
const WorkerBudget = 1 << 20

// ShipRing prepares a ring for transfer to a worker. Closures do not
// survive a postMessage: the paper's Listing 2 rebuilds the function from
// its mapped source code, losing the captured environment. We reproduce
// that by stripping the environment — the shipped function sees only its
// own parameters, exactly like a function reconstructed from source text.
// (This is also what makes the worker share-nothing: the machine's frames
// never cross the boundary.)
func ShipRing(r *blocks.Ring) *blocks.Ring {
	return &blocks.Ring{Body: r.Body, Params: r.Params}
}

// workerCount resolves the optional worker-count input of parallelMap:
// the user's number when given, else Listing 2's
// `aCount || navigator.hardwareConcurrency || 4`.
func workerCount(v value.Value) (int, error) {
	if value.IsNothing(v) || v.String() == "" {
		return workers.DefaultWorkers(), nil
	}
	n, err := value.ToInt(v)
	if err != nil {
		return 0, err
	}
	if n < 1 {
		return workers.DefaultWorkers(), nil
	}
	return n, nil
}

// plan is a parallel block's own part of Listing 2, built on its first
// entry once its inputs check out: the input list to ship, the pool's
// worker count, the pool operation to start over the shipped copy, and
// how to shape the job's result into the block's answer. awaitJob stashes
// the plan in its context's input array (Listing 2's inputs[3]) with the
// job it started.
type plan struct {
	list    *value.List
	workers int
	start   func(data *value.List, opts workers.Options) *workers.Job
	report  func(res *value.List) (value.Value, error)

	job      *workers.Job          // the job in flight
	prevDone func(*interp.Process) // the process's death hook before the job's
}

// awaitJob is Listing 2, written once for every parallel block:
//
//	Use the context input array to store the parallel job:
//	  [0..argc-1] - the block's own inputs
//	  ------------------------------------------------
//	  [argc] - Parallel object
//
// On first entry it asks first for the block's plan, ships the data
// (shipList) — on the interpreter thread, so no worker ever reads a list
// a script can still mutate — starts the job with the session's trace
// label, arranges for the job to be canceled if the process dies, stashes
// the plan at inputs[argc], and parks and yields. Every later entry checks
// whether the job is done, reporting the shaped result when so, and
// otherwise parks on the job and yields again so the rest of the system
// keeps running. The first entry always parks, even on a job that
// resolved at once, so a session's step and round counts do not depend
// on host speed. A nil plan means the block answered v without a job.
func awaitJob(p *interp.Process, ctx *interp.Context, argc int, first func() (v value.Value, pl *plan, err error)) (value.Value, interp.Control, error) {
	var pl *plan
	if len(ctx.Inputs) <= argc { // if (this.context.inputs.length < 4)
		v, fresh, err := first()
		if err != nil || fresh == nil {
			return v, interp.Done, err
		}
		pl = fresh
		opts := workers.Options{MaxWorkers: pl.workers, Label: traceLabel(p)}
		pl.job = pl.start(shipList(pl.list), opts) // new Parallel(...); p.map(aFunction)
		pl.prevDone = cancelOnDeath(p, pl.job)
		ctx.Inputs = append(ctx.Inputs, &value.Opaque{Tag: "parallelJob", Payload: pl})
	} else {
		pl = ctx.Inputs[argc].(*value.Opaque).Payload.(*plan)
		if pl.job.Resolved() { // if (p.operation._resolved)
			// A resolved job has nothing left to cancel: put the death
			// hook back as it was, so the process keeps neither the job
			// nor its result once the block has reported.
			p.OnDone = pl.prevDone
			res, err := pl.job.Wait()
			if err != nil {
				return nil, interp.Done, err
			}
			v, err := pl.report(res)
			return v, interp.Done, err
		}
	}
	p.ParkOn(pl.job.Done())
	p.PushYield() // this.pushContext('doYield'); this.pushContext();
	return nil, interp.Again, nil
}

// shipList is postMessage's structured clone of a parallel block's input
// list. Each item is cloned on its own, as a worker-side clone of each
// argument would be, so items that held one sublist get a copy each: a
// ring that mutates its argument changes only its own item's copy, never
// another worker's. A columnar list holds only scalars and copies its
// column.
func shipList(l *value.List) *value.List {
	if l.Columnar() {
		return l.Clone().(*value.List)
	}
	items := l.Items()
	out := value.NewListCap(len(items))
	for _, it := range items {
		out.Add(value.CloneValue(it))
	}
	return out
}

// mapJob starts a chunked parallel map of h over the pool's data.
func mapJob(h workers.ChunkHandler) func(*value.List, workers.Options) *workers.Job {
	return func(data *value.List, opts workers.Options) *workers.Job {
		return workers.New(data, opts).MapChunks(h)
	}
}

// primParallelMap is the parallelMap block of §3.2: map the ring across
// the list on workers, reporting the results in input order.
func primParallelMap(p *interp.Process, ctx *interp.Context) (value.Value, interp.Control, error) {
	return awaitJob(p, ctx, 3, func() (value.Value, *plan, error) {
		ring, ok := ctx.Inputs[0].(*blocks.Ring)
		if !ok {
			return nil, nil, fmt.Errorf("parallelMap needs a ringed function, got %s", ctx.Inputs[0].Kind())
		}
		list, err := interp.AsList(ctx.Inputs[1])
		if err != nil {
			return nil, nil, err
		}
		count, err := workerCount(ctx.Inputs[2])
		if err != nil {
			return nil, nil, err
		}
		return nil, &plan{list: list, workers: count, start: mapJob(RingChunkHandler(ring)),
			report: func(res *value.List) (value.Value, error) { return res, nil }}, nil // return new List(p.data)
	})
}

// cancelOnDeath cancels an in-flight worker job when the polling process
// dies before the job resolves — pressing the stop button terminates the
// workers, like Worker.terminate() in the browser. The hook chains with
// any OnDone already installed, which it returns: awaitJob puts that back
// once the job resolves. A process awaits one job at a time, so however
// many parallel blocks it runs, it holds at most one such hook.
func cancelOnDeath(p *interp.Process, job *workers.Job) (prev func(*interp.Process)) {
	prev = p.OnDone
	p.OnDone = func(pp *interp.Process) {
		if prev != nil {
			prev(pp)
		}
		job.Cancel()
	}
	return prev
}

// traceLabel is the trace ID the process's machine carries (the session
// ID under snapserved), stamped onto worker jobs so their spans and the
// session's span correlate.
func traceLabel(p *interp.Process) string {
	if p.Machine != nil {
		return p.Machine.TraceID
	}
	return ""
}

// --- parallelForEach ---

// feWork is the shared work queue a parallelForEach block's clones draw
// from. All clones run on the single interpreter thread, so no locking is
// needed — this is Snap!-style concurrency on the stage, not worker
// parallelism.
type feWork struct {
	list    *value.List
	next    int
	itemVar string
	body    *blocks.Ring
}

func (w *feWork) take() (value.Value, bool) {
	if w.next >= w.list.Len() {
		return nil, false
	}
	w.next++
	return w.list.MustItem(w.next), true
}

type feState struct {
	procs []*interp.Process
}

// primParallelForEach implements the block of §3.3. In parallel mode ("in
// parallel" label visible) it spawns clones of the running sprite, each
// executing the nested script on a different element of the input list; if
// the parallelism input is empty "it defaults to the length of the input
// list". In sequential mode (collapsed input) the sprite "should execute
// the script as a normal forEach block by looping over the input array".
func primParallelForEach(p *interp.Process, ctx *interp.Context) (value.Value, interp.Control, error) {
	const argc = 5
	parallel, err := value.ToBool(ctx.Inputs[4])
	if err != nil {
		return nil, interp.Done, err
	}
	if !parallel {
		return seqForEach(p, ctx, argc)
	}
	if len(ctx.Inputs) <= argc {
		if p.Machine == nil || p.Actor == nil {
			return nil, interp.Done, errors.New("parallelForEach needs a sprite and a stage")
		}
		list, err := interp.AsList(ctx.Inputs[1])
		if err != nil {
			return nil, interp.Done, err
		}
		body, ok := ctx.Inputs[3].(*blocks.Ring)
		if !ok {
			return nil, interp.Done, errors.New("parallelForEach needs a script body")
		}
		clones := list.Len()
		if !value.IsNothing(ctx.Inputs[2]) && ctx.Inputs[2].String() != "" {
			n, err := value.ToInt(ctx.Inputs[2])
			if err != nil {
				return nil, interp.Done, err
			}
			if n > 0 {
				clones = n
			}
		}
		if clones > list.Len() {
			clones = list.Len()
		}
		work := &feWork{list: list, itemVar: ctx.Inputs[0].String(), body: body}
		st := &feState{}
		for i := 0; i < clones; i++ {
			cloneActor := p.Machine.CloneSilent(p.Actor)
			f := interp.NewFrame(p.RootFrame())
			f.Declare("__work__", &value.Opaque{Tag: "feWork", Payload: work})
			proc := p.Machine.SpawnExpr(p.Sprite, cloneActor,
				blocks.NewBlock("snapWorkerLoop"), f)
			st.procs = append(st.procs, proc)
		}
		ctx.Inputs = append(ctx.Inputs, &value.Opaque{Tag: "feState", Payload: st})
		p.PushYield()
		return nil, interp.Again, nil
	}
	st := ctx.Inputs[argc].(*value.Opaque).Payload.(*feState)
	for _, proc := range st.procs {
		if !proc.Done() {
			p.PushYield()
			return nil, interp.Again, nil
		}
	}
	for _, proc := range st.procs {
		if proc.Err() != nil {
			return nil, interp.Done, proc.Err()
		}
	}
	return nil, interp.Done, nil
}

// seqForEach is sequential mode: the plain forEach loop, re-entrant with a
// cursor in scratch.
func seqForEach(p *interp.Process, ctx *interp.Context, argc int) (value.Value, interp.Control, error) {
	type seqState struct{ i int }
	var st *seqState
	if len(ctx.Inputs) <= argc {
		st = &seqState{}
		ctx.Inputs = append(ctx.Inputs, &value.Opaque{Tag: "seqState", Payload: st})
	} else {
		st = ctx.Inputs[argc].(*value.Opaque).Payload.(*seqState)
	}
	list, err := interp.AsList(ctx.Inputs[1])
	if err != nil {
		return nil, interp.Done, err
	}
	if st.i >= list.Len() {
		return nil, interp.Done, nil
	}
	body, ok := ctx.Inputs[3].(*blocks.Ring)
	if !ok {
		return nil, interp.Done, errors.New("parallelForEach needs a script body")
	}
	item := list.MustItem(st.i + 1)
	st.i++
	iter := interp.NewFrame(ringFrame(body, p))
	iter.Declare(ctx.Inputs[0].String(), item)
	if !p.Warped() {
		p.PushYield()
	}
	if err := p.PushBodyInFrame(body, iter); err != nil {
		return nil, interp.Done, err
	}
	return nil, interp.Again, nil
}

func ringFrame(r *blocks.Ring, p *interp.Process) *interp.Frame {
	if f, ok := r.Env.(*interp.Frame); ok {
		return f
	}
	return p.RootFrame()
}

// primWorkerLoop drives one parallelForEach clone: repeatedly take the next
// list element, bind it, run the nested script, and when the queue drains,
// delete the clone — "each clone of the Pitcher sprite executes the same
// nested script on a different element of the input list".
func primWorkerLoop(p *interp.Process, ctx *interp.Context) (value.Value, interp.Control, error) {
	wv, err := ctx.Frame.Get("__work__")
	if err != nil {
		return nil, interp.Done, err
	}
	work := wv.(*value.Opaque).Payload.(*feWork)
	item, ok := work.take()
	if !ok {
		if p.Machine != nil && p.Actor != nil && p.Actor.IsClone() {
			p.Machine.RemoveClone(p.Actor) // stops this process too
			return nil, interp.Replaced, nil
		}
		return nil, interp.Done, nil
	}
	iter := interp.NewFrame(ringFrame(work.body, p))
	iter.Declare(work.itemVar, item)
	if err := p.PushBodyInFrame(work.body, iter); err != nil {
		return nil, interp.Done, err
	}
	return nil, interp.Again, nil
}
