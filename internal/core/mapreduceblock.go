package core

import (
	"fmt"

	"repro/internal/blocks"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/mapreduce"
	"repro/internal/progcache"
	"repro/internal/value"
	"repro/internal/workers"
)

func init() {
	interp.RegisterPrimitive("reportMapReduce", primMapReduce)
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
// (progcache.Pair), so the block, which meets fresh ring values on every
// evaluation, shares one set across evaluations and sessions.
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
// poll-and-yield integration as parallelMap (awaitJob): the engine runs as
// a worker job over the shipped list, polled and parked on until it
// resolves, and canceled with the process. A small input runs the engine
// synchronously instead, inside this one step. The block reports a sorted
// list of (key value) pairs — Figure 12's "sorted list of unique words
// from the input with the number of times the words appear" — or, when
// every pair mapped to the single shared key, the lone reduced value (the
// climate example's average temperature).
func primMapReduce(p *interp.Process, ctx *interp.Context) (value.Value, interp.Control, error) {
	return awaitJob(p, ctx, 3, func() (value.Value, *plan, error) {
		mapRing, ok := ctx.Inputs[0].(*blocks.Ring)
		if !ok {
			return nil, nil, fmt.Errorf("mapReduce needs a ringed map function, got %s", ctx.Inputs[0].Kind())
		}
		reduceRing, ok := ctx.Inputs[1].(*blocks.Ring)
		if !ok {
			return nil, nil, fmt.Errorf("mapReduce needs a ringed reduce function, got %s", ctx.Inputs[1].Kind())
		}
		list, err := interp.AsList(ctx.Inputs[2])
		if err != nil {
			return nil, nil, err
		}
		k := ringKernels(mapRing, reduceRing)
		if list.Len() <= syncMapReduceMax {
			// Nothing runs concurrently with the caller, and the map
			// phase clones each item before the mapper sees it, so the
			// list need not be shipped either.
			res, err := mapreduce.Run(list, k.m, k.r, mapreduce.Config{Workers: 1, Label: traceLabel(p), Columns: k.cols})
			if err != nil {
				return nil, nil, err
			}
			return mrResult(res), nil, nil
		}
		return nil, &plan{list: list, workers: workers.DefaultWorkers(),
			start: func(data *value.List, opts workers.Options) *workers.Job {
				return workers.Go(func(j *workers.Job) (*value.List, error) {
					res, err := mapreduce.Run(data, k.m, k.r, mapreduce.Config{
						Workers: opts.MaxWorkers, Label: opts.Label, Columns: k.cols, Canceled: j.Canceled})
					if err != nil {
						return nil, err
					}
					// Every Job resolves to a list, so the block's answer
					// rides in a one-item list that report unwraps: one
					// small allocation per evaluation, the price of the
					// one Job type all four blocks await.
					return value.NewList(mrResult(res)), nil
				})
			},
			report: func(res *value.List) (value.Value, error) { return res.MustItem(1), nil }}, nil
	})
}
