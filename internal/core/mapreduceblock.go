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
}

// startMR kicks the engine off on worker goroutines over a private clone
// of the input ("ship the data, not the list").
func startMR(list *value.List, mf mapreduce.Mapper, rf mapreduce.Reducer, label string) *mrJob {
	job := &mrJob{done: make(chan struct{})}
	input := list.Clone().(*value.List)
	go func() {
		res, err := mapreduce.Run(input, mf, rf, mapreduce.Config{Workers: workers.DefaultWorkers(), Label: label})
		if err != nil {
			job.err = err
		} else {
			job.result = mrResult(res)
		}
		close(job.done)
	}()
	return job
}

// poll reports the job's outcome once it has resolved; until then it
// parks p, the polling process, on the job.
func (job *mrJob) poll(p *interp.Process) (value.Value, bool, error) {
	select {
	case <-job.done:
		return job.result, true, job.err
	default:
		p.ParkOn(job.done)
		return nil, false, nil
	}
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
func runMapReduce(p *interp.Process, list *value.List, mf mapreduce.Mapper, rf mapreduce.Reducer) (value.Value, func() (value.Value, bool, error), error) {
	label := traceLabel(p)
	if list.Len() <= syncMapReduceMax {
		res, err := mapreduce.Run(list, mf, rf, mapreduce.Config{Workers: 1, Label: label})
		if err != nil {
			return nil, nil, err
		}
		return mrResult(res), nil, nil
	}
	job := startMR(list, mf, rf, label)
	return nil, func() (value.Value, bool, error) { return job.poll(p) }, nil
}

// lowerMapReduce is the bytecode machine's engine adapter (see
// vm.SetMapReduceLowerer): the ring kernels are built once per lowered
// program, and each dispatch runs runMapReduce. The kernels are safe for
// concurrent calls, because the lowered program (and so this closure) is
// cached by content and may be executing on many machines at once.
func lowerMapReduce(mapRing, reduceRing *blocks.Ring) vm.MRCall {
	mf, rf := RingMapper(mapRing), RingReducer(reduceRing)
	return func(p *interp.Process, lv value.Value) (value.Value, func() (value.Value, bool, error), error) {
		list, err := interp.AsList(lv)
		if err != nil {
			return nil, nil, err
		}
		return runMapReduce(p, list, mf, rf)
	}
}

// RingMapper adapts a user map ring to the engine's Mapper contract of
// §3.4: "The function returns a two-element list with the item as the key
// and the result as the value." A ring returning a two-element list
// supplies (key, value) explicitly; a ring returning a scalar maps to the
// single shared key, which is how a whole-dataset reduction (the climate
// average) is expressed (compile.Keyed). A ring the compile tier accepts
// runs as its keyed kernel (compile.MapperRing).
func RingMapper(r *blocks.Ring) mapreduce.Mapper {
	shipped := ShipRing(r)
	if _, ok := progcache.CompileShipped(shipped); ok {
		if mf, ok := compile.MapperRing(shipped); ok {
			return mapreduce.Mapper(mf)
		}
	}
	return func(item value.Value) (string, value.Value, error) {
		v, err := interp.CallFunction(shipped, []value.Value{item}, WorkerBudget)
		if err != nil {
			return "", nil, err
		}
		k, v := compile.Keyed(v)
		return k, v, nil
	}
}

// RingReducer adapts a user reduce ring: it is called once per key with the
// list of that key's values.
func RingReducer(r *blocks.Ring) mapreduce.Reducer {
	shipped := ShipRing(r)
	if _, ok := progcache.CompileShipped(shipped); ok {
		if fn, ok := compile.UnaryRing(shipped); ok {
			return func(key string, vals *value.List) (value.Value, error) { return fn(vals) }
		}
	}
	return func(key string, vals *value.List) (value.Value, error) {
		return interp.CallFunction(shipped, []value.Value{vals}, WorkerBudget)
	}
}

// primMapReduce implements the mapReduce block of §3.4 with the same
// poll-and-yield integration as parallelMap: kick the engine off on worker
// goroutines, stash the job's poll in the context inputs, and poll — from
// the first entry on, as the bytecode machine's opMRBegin/opMRPoll pair
// does, so a job still running parks the process at once. The block
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
		v, poll, err := runMapReduce(p, list, RingMapper(mapRing), RingReducer(reduceRing))
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
