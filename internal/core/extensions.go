package core

// This file implements the "future work" §6.3/§8 direction the paper
// closes on — "we also wish to extend Snap! to extract even more
// intra-node parallelism" — by parallelizing the remaining stock
// higher-order blocks the same way parallelMap parallelizes map:
//
//	parallelKeep    — the keep (filter) block on the worker pool
//	parallelCombine — the combine (fold) block as a parallel reduction
//
// Both follow the Listing 2 integration exactly: kick the job off, stash
// it in the context's input array, poll-and-yield (parking on the job
// while it is unresolved).

import (
	"fmt"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
	"repro/internal/workers"
)

func init() {
	interp.RegisterPrimitive("reportParallelKeep", primParallelKeep)
	interp.RegisterPrimitive("reportParallelCombine", primParallelCombine)
}

// ParallelKeep builds the parallelKeep block: keep items of list for which
// the ringed predicate holds, evaluating the predicate on workers.
func ParallelKeep(ring, list, workersIn blocks.Node) *blocks.Block {
	return blocks.NewBlock("reportParallelKeep", ring, list, workersIn)
}

// ParallelCombine builds the parallelCombine block: fold list with the
// ringed binary function as a parallel reduction. The function must be
// associative (the reduction tree is not left-linear).
func ParallelCombine(list, ring, workersIn blocks.Node) *blocks.Block {
	return blocks.NewBlock("reportParallelCombine", list, ring, workersIn)
}

// primParallelKeep maps the predicate across the list on workers, then
// filters in input order — parallel test, deterministic result.
func primParallelKeep(p *interp.Process, ctx *interp.Context) (value.Value, interp.Control, error) {
	const argc = 3
	var job *workers.Job
	if len(ctx.Inputs) < argc+1 {
		ring, ok := ctx.Inputs[0].(*blocks.Ring)
		if !ok {
			return nil, interp.Done, fmt.Errorf("parallelKeep needs a ringed predicate, got %s", ctx.Inputs[0].Kind())
		}
		list, err := interp.AsList(ctx.Inputs[1])
		if err != nil {
			return nil, interp.Done, err
		}
		count, err := workerCount(ctx.Inputs[2])
		if err != nil {
			return nil, interp.Done, err
		}
		pool := workers.New(list, workers.Options{MaxWorkers: count})
		job = pool.MapChunks(RingChunkHandler(ring))
		cancelOnDeath(p, job)
		ctx.Inputs = append(ctx.Inputs, &value.Opaque{Tag: "parallelKeepJob", Payload: job})
	} else {
		job = ctx.Inputs[argc].(*value.Opaque).Payload.(*workers.Job)
		if job.Resolved() {
			verdicts, err := job.Wait()
			if err != nil {
				return nil, interp.Done, err
			}
			list, err := interp.AsList(ctx.Inputs[1])
			if err != nil {
				return nil, interp.Done, err
			}
			out := value.NewList()
			for i := 1; i <= list.Len(); i++ {
				keep, err := value.ToBool(verdicts.MustItem(i))
				if err != nil {
					return nil, interp.Done, fmt.Errorf("predicate did not report a boolean: %w", err)
				}
				if keep {
					out.Add(list.MustItem(i))
				}
			}
			return out, interp.Done, nil
		}
	}
	p.ParkOn(job.Done())
	p.PushYield()
	return nil, interp.Again, nil
}

// primParallelCombine runs the pool's chunked parallel reduction with the
// user's binary ring.
func primParallelCombine(p *interp.Process, ctx *interp.Context) (value.Value, interp.Control, error) {
	const argc = 3
	var job *workers.Job
	if len(ctx.Inputs) < argc+1 {
		list, err := interp.AsList(ctx.Inputs[0])
		if err != nil {
			return nil, interp.Done, err
		}
		ring, ok := ctx.Inputs[1].(*blocks.Ring)
		if !ok {
			return nil, interp.Done, fmt.Errorf("parallelCombine needs a ringed function, got %s", ctx.Inputs[1].Kind())
		}
		count, err := workerCount(ctx.Inputs[2])
		if err != nil {
			return nil, interp.Done, err
		}
		// The compiled tier when the ring lowers, interp.CallFunction
		// otherwise; Reduce already clones each operand across the worker
		// boundary, so the call itself need not.
		call := ringCallFunc(ShipRing(ring))
		reduceFn := func(a, b value.Value) (value.Value, error) {
			return call([]value.Value{a, b})
		}
		pool := workers.New(list, workers.Options{MaxWorkers: count})
		job = pool.Reduce(reduceFn)
		cancelOnDeath(p, job)
		ctx.Inputs = append(ctx.Inputs, &value.Opaque{Tag: "parallelCombineJob", Payload: job})
	} else {
		job = ctx.Inputs[argc].(*value.Opaque).Payload.(*workers.Job)
		if job.Resolved() {
			res, err := job.Wait()
			if err != nil {
				return nil, interp.Done, err
			}
			if res.Len() == 0 {
				return value.Number(0), interp.Done, nil
			}
			v, _ := res.Item(1)
			if value.IsNothing(v) {
				// Empty input folds to 0, matching the sequential
				// combine block.
				return value.Number(0), interp.Done, nil
			}
			return v, interp.Done, nil
		}
	}
	p.ParkOn(job.Done())
	p.PushYield()
	return nil, interp.Again, nil
}
