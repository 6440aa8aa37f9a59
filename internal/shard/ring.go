// Package shard is the routing subsystem that turns N independent
// snapserved daemons into one cluster: a consistent-hash shard router
// (cmd/snapshardd) that fronts the backends and places every program on
// the shard whose caches already know it.
//
// The placement key is the program-cache Tier A content address —
// SHA-256 of the raw project bytes plus the declared format (see
// internal/progcache) — so identical submissions from any number of
// clients always land on the same backend, where the parse/lint cache
// and the downstream ring-compile cache are already hot. Session-scoped
// requests (GET /v1/sessions/{id}) route by the session-ID→shard mapping
// stamped when the run was submitted.
//
// The router is a robustness layer, not a dumb proxy: per-backend health
// checking ejects dead or draining backends from the ring and re-admits
// them when they recover, requests a backend never served are retried
// with exponential backoff and jitter onto the next shard in preference
// order (never replaying a non-idempotent request a backend may have
// served), backend 429 Retry-After and fault statuses propagate
// unchanged, and a cluster-wide in-flight budget sheds load with a
// derived Retry-After when every shard is saturated.
package shard

import (
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/obs"
)

// point is one virtual node: a position on the hash circle owned by a
// backend.
type point struct {
	hash    uint64
	backend int
}

// Ring is the consistent-hash ring: each member backend owns vnodes
// pseudo-random positions on a 64-bit circle, and a key belongs to the
// first position at or clockwise of the key's own hash. Ejecting a
// backend moves only that backend's keys (they slide to their next
// preference); the rest of the keyspace is untouched — the property that
// keeps per-shard program caches hot across membership churn.
type Ring struct {
	n      int
	vnodes int

	mu       sync.RWMutex
	members  []bool
	points   []point
	rebuilds int64
}

// NewRing builds a ring over n backends (indices 0..n-1, all members)
// with the given virtual-node count per backend (minimum 1).
func NewRing(n, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	r := &Ring{n: n, vnodes: vnodes, members: make([]bool, n)}
	for i := range r.members {
		r.members[i] = true
	}
	r.rebuildLocked()
	return r
}

// pointHash positions vnode v of backend b on the circle.
func pointHash(b, v int) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(b >> (8 * i))
		buf[8+i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// keyHash positions a routing key on the circle.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// rebuildLocked regenerates the point set from the current membership.
// Positions depend only on (backend, vnode), so a re-admitted backend
// reclaims exactly the arcs it owned before — its keys come home.
func (r *Ring) rebuildLocked() {
	pts := make([]point, 0, r.n*r.vnodes)
	for b := 0; b < r.n; b++ {
		if !r.members[b] {
			continue
		}
		for v := 0; v < r.vnodes; v++ {
			pts = append(pts, point{hash: pointHash(b, v), backend: b})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].hash < pts[j].hash })
	r.points = pts
	r.rebuilds++
	if obs.Enabled() {
		obs.ShardRingRebuilds.Inc()
	}
}

// SetMember adds or removes a backend from the ring, rebuilding the point
// set when membership actually changes. It reports whether it did.
func (r *Ring) SetMember(backend int, in bool) bool {
	if backend < 0 || backend >= r.n {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[backend] == in {
		return false
	}
	r.members[backend] = in
	r.rebuildLocked()
	return true
}

// Contains reports whether the backend is currently a member.
func (r *Ring) Contains(backend int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return backend >= 0 && backend < r.n && r.members[backend]
}

// Live counts current members.
func (r *Ring) Live() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	live := 0
	for _, m := range r.members {
		if m {
			live++
		}
	}
	return live
}

// Rebuilds reports how many times the point set was regenerated
// (including the initial build).
func (r *Ring) Rebuilds() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rebuilds
}

// Prefer returns the member backends in the key's preference order: the
// owner first, then each next distinct backend walking clockwise. The
// order is the failover chain — an unsent attempt on the owner retries on
// Prefer(key)[1], and so on. Empty when no backend is a member.
func (r *Ring) Prefer(key string) []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	kh := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if start == len(r.points) {
		start = 0 // wrap: the circle's first point owns the top arc
	}
	seen := make([]bool, r.n)
	out := make([]int, 0, r.n)
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, p.backend)
		}
	}
	return out
}
