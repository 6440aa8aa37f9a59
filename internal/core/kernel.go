package core

// This file is the worker-boundary integration of the ring-compiler tier
// (package compile). Every parallel block ships its ring the same way —
// core.ShipRing strips the environment, Listing 2's "rebuild the function
// from source" — and then picks an execution tier for the worker side:
//
//	compiled:    compile.Ring lowered the body to a direct Go closure; the
//	             per-element cost is the closure call plus the result's
//	             clone out. No Process, no Context, no step dispatch.
//	interpreted: the body uses something the compiler refuses; each worker
//	             chunk checks one pooled interp.Caller out, resets it per
//	             element, and pays the full cooperative evaluator — but the
//	             Process/Frame scaffolding is amortized across the chunk
//	             instead of rebuilt per element.
//
// Both tiers keep the postMessage discipline, so workers stay
// share-nothing: the block ships the job a private copy of its input
// list, each item cloned on its own (shipList), so a handler's arguments
// are already cloned, and each result is cloned back out.

import (
	"fmt"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/progcache"
	"repro/internal/value"
	"repro/internal/workers"
)

// RingChunkHandler builds the chunk-level worker handler for a user ring:
// the compiled tier when the body lowers, else the chunk-amortized
// interpreter tier. This is what parallelMap and parallelKeep dispatch. Its
// source elements are passed to the ring as they are: the pool's data must
// be private to the job, and no two of its items may share a list, since
// an interpreted ring may mutate its argument.
//
// The tier decision goes through the Tier B program cache
// (progcache.CompileShipped): the first dispatch of a distinct ring pays
// the full compile.Ring walk — landing on engine_compile_hits_total or
// engine_compile_fallbacks_total{reason} exactly once — and every later
// dispatch of the same structure (same session or not) replays the
// memoized outcome, compiled kernel and refusal alike.
func RingChunkHandler(r *blocks.Ring) workers.ChunkHandler {
	shipped := ShipRing(r)
	if fn, ok := progcache.CompileShipped(shipped); ok {
		return func(j *workers.Job, base int, dst, src []value.Value) error {
			var argbuf [1]value.Value
			for i, in := range src {
				if j.Canceled() {
					return workers.ErrCanceled
				}
				argbuf[0] = in
				out, err := fn(argbuf[:])
				if err != nil {
					return fmt.Errorf("element %d: %w", base+i+1, err)
				}
				dst[i] = value.CloneValue(out)
			}
			return nil
		}
	}
	return func(j *workers.Job, base int, dst, src []value.Value) error {
		c := interp.GetCaller()
		defer c.Release()
		var argbuf [1]value.Value
		for i, in := range src {
			if j.Canceled() {
				return workers.ErrCanceled
			}
			argbuf[0] = in
			out, err := c.Call(shipped, argbuf[:], WorkerBudget)
			if err != nil {
				return fmt.Errorf("element %d: %w", base+i+1, err)
			}
			dst[i] = value.CloneValue(out)
		}
		return nil
	}
}

// ringCallFunc builds the plain call-shaped view of a shipped ring used by
// parallelCombine's reducer: the compiled closure when available, else
// interp.CallFunction. The arguments come from the job's shipped copy of
// the list, so the compiled tier's no-clone contract is safe here.
func ringCallFunc(shipped *blocks.Ring) func(args []value.Value) (value.Value, error) {
	if fn, ok := progcache.CompileShipped(shipped); ok {
		return fn
	}
	return func(args []value.Value) (value.Value, error) {
		return interp.CallFunction(shipped, args, WorkerBudget)
	}
}
