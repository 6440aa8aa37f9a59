package core

import (
	"fmt"

	"repro/internal/blocks"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/mapreduce"
	"repro/internal/progcache"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/workers"
)

func init() {
	interp.RegisterPrimitive("reportMapReduce", primMapReduce)
	vm.SetMapReduceLowerer(lowerMapReduce)
}

// syncMapReduceMax is the largest input list the mapReduce block runs
// synchronously inside its own primitive step. Below this the per-job
// overhead of the asynchronous path (goroutine spawn, input clone, and at
// least one poll/yield round trip through the scheduler) dwarfs the work
// itself; above it the job moves to worker goroutines so the cooperative
// interpreter keeps stepping other processes while it runs.
const syncMapReduceMax = 64

// mrResult converts an engine result to the block's reported value: a
// sorted list of (key value) pairs, or — when every pair mapped to the
// single shared key — the lone reduced value (the climate average).
func mrResult(res mapreduce.Result) value.Value {
	if len(res) == 1 && res[0].Key == "" {
		return res[0].Val
	}
	return res.List()
}

// mrJob is the in-flight mapReduce block operation: the engine runs on
// worker goroutines while the interpreter polls, exactly like parallelMap's
// Parallel object. done closes once result and err are set.
type mrJob struct {
	done   chan struct{}
	result value.Value
	err    error
	// polled is set by the first poll, which parks without looking at
	// done, as parallelMap's first entry does: a job quick enough to
	// finish before that poll would otherwise save the session a round,
	// making its step and round counts depend on host speed.
	polled bool
}

// mrKernels is the engine's kernel set for one shipped (map, reduce) ring
// pair: the boxed pair every input runs on, and the float column pair
// when both rings have a float form (see newMRKernels). It is immutable
// and safe for concurrent runs.
type mrKernels struct {
	m    mapreduce.Mapper
	r    mapreduce.Reducer
	cols mapreduce.Columns
}

// ringKernels returns the kernel set for a (map, reduce) ring pair. It is
// built once per distinct pair through the program cache's ring tier
// (progcache.Pair), so the tree primitive, which meets fresh ring
// values on every evaluation, and each lowered program share one set.
func ringKernels(mapRing, reduceRing *blocks.Ring) *mrKernels {
	ms, rs := ShipRing(mapRing), ShipRing(reduceRing)
	return progcache.Pair(progcache.DefaultRings, ms, rs, func() *mrKernels { return newMRKernels(ms, rs) })
}

// MapReduceKernels returns the engine kernels the mapReduce block runs
// for a (map, reduce) ring pair: the boxed mapper and reducer, and in
// cols their float column forms when both rings have one.
func MapReduceKernels(mapRing, reduceRing *blocks.Ring) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Columns) {
	k := ringKernels(mapRing, reduceRing)
	return k.m, k.r, k.cols
}

// newMRKernels builds the kernel set of two shipped rings. A float column
// runs unboxed only when the compile tier gives the map ring a float form
// (compile.FloatMapperRing) and compiles the reduce ring: the reducer's
// column form is then the compiled reducer applied to the float group.
func newMRKernels(ms, rs *blocks.Ring) *mrKernels {
	k := &mrKernels{}
	var fm compile.FloatMapFn
	k.m, fm = ringMapper(ms)
	red, ok := compiledReducer(rs)
	if ok {
		k.r = func(key string, vals *value.List) (value.Value, error) { return red(vals) }
	} else {
		k.r = func(key string, vals *value.List) (value.Value, error) {
			return interp.CallFunction(rs, []value.Value{vals}, WorkerBudget)
		}
	}
	if fm != nil && ok {
		k.cols = mapreduce.Columns{
			FloatMap: mapreduce.FloatMapper(fm),
			// The group is a capped view of the run's shuffle array,
			// which nothing reuses, and a compiled ring cannot
			// mutate a list, so the column list adopts it uncopied.
			FloatReduce: func(key string, vals []float64) (value.Value, error) {
				return red(value.AdoptFloats(vals))
			},
		}
	}
	return k
}

// startMR kicks the engine off on worker goroutines over a private clone
// of the input ("ship the data, not the list").
func startMR(list *value.List, k *mrKernels, label string) *mrJob {
	job := &mrJob{done: make(chan struct{})}
	input := list.Clone().(*value.List)
	go func() {
		res, err := mapreduce.Run(input, k.m, k.r, mapreduce.Config{Workers: workers.DefaultWorkers(), Label: label, Columns: k.cols})
		if err != nil {
			job.err = err
		} else {
			job.result = mrResult(res)
		}
		close(job.done)
	}()
	return job
}

// poll reports the job's outcome once it has resolved, from the second
// poll on; until then it parks p, the polling process, on the job. Only
// the polling process calls it.
func (job *mrJob) poll(p *interp.Process) (value.Value, bool, error) {
	if job.polled {
		select {
		case <-job.done:
			return job.result, true, job.err
		default:
		}
	}
	job.polled = true
	p.ParkOn(job.done)
	return nil, false, nil
}

// runMapReduce is the mapReduce block's dispatch, shared by the tree
// primitive and the bytecode machine (vm.MRCall's contract): a small input
// completes synchronously, a larger one starts a job whose poll parks p
// while the job is unresolved. Small inputs run the engine on the calling
// goroutine because the goroutine hand-off plus the poll/yield scheduler
// rounds cost more than the whole job.
// Nothing runs concurrently with the caller, and the map phase clones each
// item before the mapper sees it, so the defensive whole-list clone is
// also unnecessary.
func runMapReduce(p *interp.Process, list *value.List, k *mrKernels) (value.Value, func() (value.Value, bool, error), error) {
	label := traceLabel(p)
	if list.Len() <= syncMapReduceMax {
		res, err := mapreduce.Run(list, k.m, k.r, mapreduce.Config{Workers: 1, Label: label, Columns: k.cols})
		if err != nil {
			return nil, nil, err
		}
		return mrResult(res), nil, nil
	}
	job := startMR(list, k, label)
	return nil, func() (value.Value, bool, error) { return job.poll(p) }, nil
}

// lowerMapReduce is the bytecode machine's engine adapter (see
// vm.SetMapReduceLowerer): the kernel set is resolved once per lowered
// program, and each dispatch runs runMapReduce. The kernels are safe for
// concurrent calls, because the lowered program (and so this closure) is
// cached by content and may be executing on many machines at once.
func lowerMapReduce(mapRing, reduceRing *blocks.Ring) vm.MRCall {
	k := ringKernels(mapRing, reduceRing)
	return func(p *interp.Process, lv value.Value) (value.Value, func() (value.Value, bool, error), error) {
		list, err := interp.AsList(lv)
		if err != nil {
			return nil, nil, err
		}
		return runMapReduce(p, list, k)
	}
}

// ringMapper adapts a shipped map ring to the engine's Mapper contract of
// §3.4: "The function returns a two-element list with the item as the key
// and the result as the value." A ring returning a two-element list
// supplies (key, value) explicitly; a ring returning a scalar maps to the
// single shared key, which is how a whole-dataset reduction (the climate
// average) is expressed (compile.Keyed). A ring the compile tier accepts
// runs as its keyed kernel (compile.MapperRing), and fm is its float form
// when it has one.
func ringMapper(shipped *blocks.Ring) (m mapreduce.Mapper, fm compile.FloatMapFn) {
	if _, ok := progcache.CompileShipped(shipped); ok {
		if mf, ok := compile.MapperRing(shipped); ok {
			fm, _ = compile.FloatMapperRing(shipped)
			return mapreduce.Mapper(mf), fm
		}
	}
	return func(item value.Value) (string, value.Value, error) {
		v, err := interp.CallFunction(shipped, []value.Value{item}, WorkerBudget)
		if err != nil {
			return "", nil, err
		}
		k, v := compile.Keyed(v)
		return k, v, nil
	}, nil
}

// compiledReducer compiles a shipped reduce ring, which is called once per
// key with the list of that key's values.
func compiledReducer(shipped *blocks.Ring) (compile.UnaryFn, bool) {
	if _, ok := progcache.CompileShipped(shipped); !ok {
		return nil, false
	}
	return compile.UnaryRing(shipped)
}

// primMapReduce implements the mapReduce block of §3.4 with the same
// poll-and-yield integration as parallelMap: kick the engine off on worker
// goroutines, stash the job's poll in the context inputs, and poll — from
// the first entry on, as the bytecode machine's opMRBegin/opMRPoll pair
// does; the first poll always parks the process (mrJob.poll). The block
// reports a sorted list of (key value) pairs — Figure 12's "sorted list of
// unique words from the input with the number of times the words appear" —
// or, when every pair mapped to the single shared key, the lone reduced
// value (the climate example's average temperature).
func primMapReduce(p *interp.Process, ctx *interp.Context) (value.Value, interp.Control, error) {
	const argc = 3
	if len(ctx.Inputs) < argc+1 {
		mapRing, ok := ctx.Inputs[0].(*blocks.Ring)
		if !ok {
			return nil, interp.Done, fmt.Errorf("mapReduce needs a ringed map function, got %s", ctx.Inputs[0].Kind())
		}
		reduceRing, ok := ctx.Inputs[1].(*blocks.Ring)
		if !ok {
			return nil, interp.Done, fmt.Errorf("mapReduce needs a ringed reduce function, got %s", ctx.Inputs[1].Kind())
		}
		list, err := interp.AsList(ctx.Inputs[2])
		if err != nil {
			return nil, interp.Done, err
		}
		v, poll, err := runMapReduce(p, list, ringKernels(mapRing, reduceRing))
		if err != nil || poll == nil {
			return v, interp.Done, err
		}
		ctx.Inputs = append(ctx.Inputs, &value.Opaque{Tag: "mapReduceJob", Payload: poll})
	}
	poll := ctx.Inputs[argc].(*value.Opaque).Payload.(func() (value.Value, bool, error))
	if v, done, err := poll(); done {
		return v, interp.Done, err
	}
	p.PushYield()
	return nil, interp.Again, nil
}
