package progcache

import (
	"repro/internal/blocks"
	"repro/internal/compile"
)

// ringEntry is Tier B's cached tier decision for one shipped ring: the
// compiled kernel when the body lowers, or the refusal. Either way the
// full lowering walk — and, for refusals, the
// engine_compile_fallbacks_total{reason} bump — is paid once per
// distinct ring, not once per dispatch.
type ringEntry struct {
	fn compile.Fn
	ok bool
}

// ringEntryOverhead prices a cached compile outcome beyond its encoded
// structure (closure tree, map slot, LRU node).
const ringEntryOverhead = 256

// Rings is the Tier B cache. A nil *Rings passes every Compile straight
// through to compile.Ring.
type Rings struct {
	c *cache
}

// DefaultRingBudget is the Tier B byte budget: rings are small (tens to
// hundreds of canonical bytes), so this holds every distinct ring any
// realistic mix of sessions is running.
const DefaultRingBudget int64 = 8 << 20

// NewRings builds a Tier B cache with the given byte budget (<= 0
// disables caching).
func NewRings(budget int64) *Rings {
	c := newCache("ring", budget)
	if c == nil {
		return nil
	}
	return &Rings{c: c}
}

// DefaultRings is the process-wide Tier B cache behind the kernel tier
// decision (core.RingChunkHandler and the mapReduce/combine adapters).
var DefaultRings = NewRings(DefaultRingBudget)

// Compile memoizes compile.Ring for a shipped ring. Rings without a
// stable content address (captured environment, opaque literals) skip
// the cache and pay the direct compile — exactly what compile.Ring
// would refuse anyway for the env case.
func (rc *Rings) Compile(r *blocks.Ring) (compile.Fn, bool) {
	if rc == nil || rc.c == nil {
		return compile.Ring(r)
	}
	key, cost, hashable := hashRing(r)
	if !hashable {
		return compile.Ring(r)
	}
	v, _ := rc.c.get(key, func() (any, int64) {
		fn, ok := compile.Ring(r)
		return ringEntry{fn: fn, ok: ok}, cost + ringEntryOverhead
	})
	ent := v.(ringEntry)
	return ent.fn, ent.ok
}

// Pair memoizes build for an ordered pair of shipped rings in rc's tier:
// the mapReduce block's kernel set, built once per distinct (map, reduce)
// pair instead of once per evaluation. A pair without a stable content
// address, or a nil rc, builds directly. build may itself call Compile:
// loads run outside the tier's lock.
func Pair[T any](rc *Rings, a, b *blocks.Ring, build func() T) T {
	if rc == nil || rc.c == nil {
		return build()
	}
	key, cost, hashable := hashRingPair(a, b)
	if !hashable {
		return build()
	}
	v, _ := rc.c.get(key, func() (any, int64) {
		return build(), cost + 2*ringEntryOverhead
	})
	return v.(T)
}

// Stats snapshots the tier's counters (zero value when disabled).
func (rc *Rings) Stats() Stats {
	if rc == nil || rc.c == nil {
		return Stats{}
	}
	return rc.c.snapshot()
}

// Reset empties the cache (test/bench hook); no-op when disabled.
func (rc *Rings) Reset() {
	if rc != nil && rc.c != nil {
		rc.c.reset()
	}
}

// CompileShipped is the kernel tier's entry point: Compile on the
// process-wide DefaultRings.
func CompileShipped(r *blocks.Ring) (compile.Fn, bool) {
	return DefaultRings.Compile(r)
}
