// Package workers emulates HTML5 Web Workers and the Parallel.js library
// the paper builds on (§4.1). The Parallel type reproduces the Parallel.js
// API used in Listing 1: construct it with data and a maxWorkers option,
// then map or reduce a function across the data on the worker pool.
//
// "Each HTML5 Web Worker corresponds to a single thread and runs
// independently from other workers and independently from the
// user-interface thread." Here the threads are the persistent goroutines
// of the SharedPool, and the unit of isolation is the boundary every
// element crosses: each input arrives as a structured clone (Map clones
// each element; callers of MapChunks and Reduce ship the pool a private
// copy of their list) and each result is cloned back out, as postMessage
// does, and a handler that panics fails its job with an error, as a worker
// reports through onerror.
// Cloning rather than process isolation preserves the observable
// semantics.
package workers

import (
	"fmt"
	"runtime"

	"repro/internal/value"
)

// DefaultWorkers is the worker count used when the caller does not specify
// one: the hardware concurrency when known, else 4 — Listing 2's
// "navigator.hardwareConcurrency || 4".
func DefaultWorkers() int {
	if n := runtime.NumCPU(); n > 0 {
		return n
	}
	return 4
}

// PaperDefaultWorkers is the parallelMap block's default of §3.2:
// "By default, four Web Workers are created."
const PaperDefaultWorkers = 4

// Handler is the worker's script: it receives each element's data and
// returns the reply, like an onmessage that always posts a response.
type Handler func(value.Value) (value.Value, error)

// runHandler converts a panicking handler into an error, the way a thrown
// exception inside a Web Worker surfaces as an onerror event instead of
// crashing the page.
func runHandler(h Handler, in value.Value) (out value.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("worker script error: %v", r)
		}
	}()
	return h(in)
}

// safeClone is the worker-boundary structured clone: a deep copy for
// mutable containers, elided (the same box returned) for immutable
// scalars — see value.CloneValue for why sharing scalar boxes preserves
// the share-nothing semantics.
func safeClone(v value.Value) value.Value {
	return value.CloneValue(v)
}
