// Package progcache is the content-addressed program cache of the
// execution service. The workload it targets is the paper's own: a
// classroom of students repeatedly running near-identical block programs,
// so the service sees the same project bytes — and the same shipped rings
// inside them — over and over. Re-elaborating that work per request is
// pure waste; this package memoizes it in two tiers behind one
// singleflight front:
//
//	Tier A (project): keyed on a hash of the project as the request
//	body carries it (the raw JSON string token, still escaped) plus the
//	normalised format, stores the parsed *blocks.Project together with
//	its lint findings. ScanEnvelope reads the body and Envelope.Key
//	computes the key, for the server and for the shard router alike, so
//	a cached request runs no encoding/json pass over its program and the
//	router decodes no JSON at all. A thundering herd of identical
//	submissions parses and lints once; everyone else replays the cached
//	outcome — including cached *rejections* (parse errors, lint-fatal
//	findings), so malformed resubmissions are as cheap as good ones.
//
//	Tier B (ring): keyed on the SHA-256 of a shipped blocks.Ring's
//	canonical encoding (blocks.AppendKey, the one structural encoder,
//	which the VM's lowered-program memo hashes too), stores the
//	compile.Ring outcome — the compiled Fn on success, the
//	refusal reason on fallback. A session dispatching the same ring job
//	after job (or many sessions running the same program) lowers it
//	once; refused rings stop paying the full lowering walk per job, and
//	their fallbacks{reason} counter stops being re-bumped per dispatch.
//	The same tier holds the mapReduce block's kernel set per (map,
//	reduce) ring pair (Pair), so the tree primitive, which meets fresh
//	ring values on every evaluation, builds it once.
//
// Both tiers are LRU caches under a byte budget, safe for concurrent use,
// and instrumented through internal/obs (engine_progcache_* series on
// snapserved /metrics and in snapvm -stats). The cached artifacts are
// shared across sessions, so they are immutable by contract: the
// interpreter deep-clones initial variable values and container literals
// out of a Project before mutating them (see interp), and compiled Fns are
// pure. guard_test.go hammers one cached entry from 16 concurrent
// sessions under -race to keep that contract honest.
package progcache

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// cache is the shared engine: a byte-budget LRU with a singleflight
// front. Values are opaque; the tier wrappers give them types.
//
// Loads run outside the lock, and at most one load per key is in flight
// at a time: concurrent callers for the same missing key wait for the
// leader's result and share it (the "singleflight-shared" outcome). A
// load's outcome is always returned to its callers, even when the entry
// is bigger than the whole budget and gets evicted on insert.
type cache struct {
	tier   string // obs label: "project" or "ring"
	budget int64

	mu       sync.Mutex
	entries  map[string]*list.Element // key -> element holding *entry
	ll       *list.List               // front = most recently used
	inflight map[string]*flight
	bytes    int64
	stats    Stats
}

// entry is one resident cache line.
type entry struct {
	key  string
	val  any
	cost int64
}

// flight is one in-progress load; followers block on done.
type flight struct {
	done chan struct{}
	val  any
}

// Stats is a snapshot of one tier's counters — the always-on source of
// truth the obs series mirror (obs counters are only bumped while
// obs.Enabled(), so tests and tools that flip instrumentation mid-process
// can still read exact totals here).
type Stats struct {
	// Hits found a resident entry; Misses paid the load; SharedLoads
	// waited for another caller's in-flight load and shared its result.
	// Every Get lands in exactly one of the three.
	Hits, Misses, SharedLoads int64
	// Evictions counts entries dropped by the byte budget.
	Evictions int64
	// Bytes and Entries describe current residency.
	Bytes   int64
	Entries int
}

func newCache(tier string, budget int64) *cache {
	if budget <= 0 {
		return nil // disabled: callers treat a nil cache as a pass-through
	}
	return &cache{
		tier:     tier,
		budget:   budget,
		entries:  map[string]*list.Element{},
		ll:       list.New(),
		inflight: map[string]*flight{},
	}
}

// Outcome classifies one Get for the instrumentation.
type Outcome int

// The Get outcomes.
const (
	// OutcomeHit: the entry was resident.
	OutcomeHit Outcome = iota
	// OutcomeMiss: this caller ran the load.
	OutcomeMiss
	// OutcomeShared: another caller's in-flight load was shared.
	OutcomeShared
)

// get returns the value for key, running load (outside the lock, at most
// once concurrently per key) on a miss. cost prices the loaded value for
// the byte budget.
func (c *cache) get(key string, load func() (val any, cost int64)) (any, Outcome) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		val := el.Value.(*entry).val
		c.mu.Unlock()
		count(obs.ProgcacheHits, c.tier)
		return val, OutcomeHit
	}
	if fl, ok := c.inflight[key]; ok {
		c.stats.SharedLoads++
		c.mu.Unlock()
		count(obs.ProgcacheSharedLoads, c.tier)
		<-fl.done
		return fl.val, OutcomeShared
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.stats.Misses++
	c.mu.Unlock()
	count(obs.ProgcacheMisses, c.tier)

	val, cost := load()
	fl.val = val
	close(fl.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if _, ok := c.entries[key]; !ok { // lost-race double insert can't happen (singleflight), but stay safe
		c.entries[key] = c.ll.PushFront(&entry{key: key, val: val, cost: cost})
		c.bytes += cost
		c.evictLocked()
	}
	c.stats.Bytes = c.bytes
	c.stats.Entries = len(c.entries)
	resident := c.bytes
	c.mu.Unlock()
	obs.ProgcacheBytes.With(c.tier).Set(resident)
	return val, OutcomeMiss
}

// evictLocked drops least-recently-used entries until the budget holds.
func (c *cache) evictLocked() {
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.cost
		c.stats.Evictions++
		count(obs.ProgcacheEvictions, c.tier)
	}
}

// snapshot reads the tier's counters.
func (c *cache) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Bytes = c.bytes
	st.Entries = len(c.entries)
	return st
}

// reset empties the cache and zeroes its stats — a test and benchmark
// hook; the obs counters (monotonic by contract) are left alone.
func (c *cache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.ll = list.New()
	c.bytes = 0
	c.stats = Stats{}
	obs.ProgcacheBytes.With(c.tier).Set(0)
}

// count bumps an obs counter when instrumentation is on — the standard
// one-atomic-load disabled path of internal/obs.
func count(v *obs.CounterVec, tier string) {
	if obs.Enabled() {
		v.With(tier).Inc()
	}
}
