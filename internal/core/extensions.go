package core

// This file implements the "future work" §6.3/§8 direction the paper
// closes on — "we also wish to extend Snap! to extract even more
// intra-node parallelism" — by parallelizing the remaining stock
// higher-order blocks the same way parallelMap parallelizes map:
//
//	parallelKeep    — the keep (filter) block on the worker pool
//	parallelCombine — the combine (fold) block as a parallel reduction
//
// Both follow the Listing 2 integration exactly, through the one helper
// every parallel block shares (awaitJob): ship the list, kick the job
// off, stash it in the context's input array, poll-and-yield (parking on
// the job while it is unresolved).

import (
	"fmt"
	"slices"

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
// filters in input order — parallel test, deterministic result. The items
// kept are the input's own, as they stood when the job started.
func primParallelKeep(p *interp.Process, ctx *interp.Context) (value.Value, interp.Control, error) {
	return awaitJob(p, ctx, 3, func() (value.Value, *plan, error) {
		ring, ok := ctx.Inputs[0].(*blocks.Ring)
		if !ok {
			return nil, nil, fmt.Errorf("parallelKeep needs a ringed predicate, got %s", ctx.Inputs[0].Kind())
		}
		list, err := interp.AsList(ctx.Inputs[1])
		if err != nil {
			return nil, nil, err
		}
		count, err := workerCount(ctx.Inputs[2])
		if err != nil {
			return nil, nil, err
		}
		items := slices.Clone(list.Items())
		return nil, &plan{list: list, workers: count, start: mapJob(RingChunkHandler(ring)),
			report: func(verdicts *value.List) (value.Value, error) {
				out := value.NewList()
				for i, item := range items {
					keep, err := value.ToBool(verdicts.MustItem(i + 1))
					if err != nil {
						return nil, fmt.Errorf("predicate did not report a boolean: %w", err)
					}
					if keep {
						out.Add(item)
					}
				}
				return out, nil
			}}, nil
	})
}

// primParallelCombine runs the pool's chunked parallel reduction with the
// user's binary ring.
func primParallelCombine(p *interp.Process, ctx *interp.Context) (value.Value, interp.Control, error) {
	return awaitJob(p, ctx, 3, func() (value.Value, *plan, error) {
		list, err := interp.AsList(ctx.Inputs[0])
		if err != nil {
			return nil, nil, err
		}
		ring, ok := ctx.Inputs[1].(*blocks.Ring)
		if !ok {
			return nil, nil, fmt.Errorf("parallelCombine needs a ringed function, got %s", ctx.Inputs[1].Kind())
		}
		count, err := workerCount(ctx.Inputs[2])
		if err != nil {
			return nil, nil, err
		}
		// The compiled tier when the ring lowers, interp.CallFunction
		// otherwise; the operands are the job's shipped copy, so the
		// call itself need not clone them.
		call := ringCallFunc(ShipRing(ring))
		fold := func(a, b value.Value) (value.Value, error) {
			return call([]value.Value{a, b})
		}
		return nil, &plan{list: list, workers: count,
			start: func(data *value.List, opts workers.Options) *workers.Job {
				return workers.New(data, opts).Reduce(fold)
			},
			report: func(res *value.List) (value.Value, error) {
				if res.Len() == 0 {
					return value.Number(0), nil
				}
				v, _ := res.Item(1)
				if value.IsNothing(v) {
					// Empty input folds to 0, matching the sequential
					// combine block.
					return value.Number(0), nil
				}
				return v, nil
			}}, nil
	})
}
