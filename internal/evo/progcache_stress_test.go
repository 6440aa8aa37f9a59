package evo

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/evo/gen"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/progcache"
)

// The generator is also a cache-churn machine: every genome decodes to a
// distinct program body, so a stream of genomes is exactly the workload
// Tier A was built for — many one-shot keys competing with a few hot
// ones under a byte budget. These tests drive it with generator output
// and pin the eviction and singleflight behavior via Stats (always-on)
// and the engine_progcache_* obs series (when instrumentation is on).

// churnSources decodes n distinct generated projects to source text.
func churnSources(t *testing.T, seed int64, n int) []string {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []string
	for tries := 0; len(out) < n && tries < n*20; tries++ {
		src, err := parse.PrintProject(gen.Project(gen.Random(rnd, 24+rnd.Intn(40))))
		if err != nil || seen[src] {
			continue
		}
		seen[src] = true
		out = append(out, src)
	}
	if len(out) < n {
		t.Fatalf("only %d distinct generated sources", len(out))
	}
	return out
}

// TestProgcacheProjectChurn drives the Tier A (project) cache with
// generated projects under a budget far smaller than the working set:
// repeats must hit while resident, the budget must force evictions, and
// residency must stay within budget throughout. The cache is built the
// way server.New builds its own (same tier, same budget knob), loaded
// with real parsed projects.
func TestProgcacheProjectChurn(t *testing.T) {
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)
	evict0 := obs.ProgcacheEvictions.With("project").Value()
	miss0 := obs.ProgcacheMisses.With("project").Value()

	cache := progcache.NewProjects(16 << 10) // a handful of parsed projects at most
	load := func(src string) func() *progcache.ProjectEntry {
		return func() *progcache.ProjectEntry {
			proj, err := parse.Project(src)
			if err != nil {
				return &progcache.ProjectEntry{ParseErr: err.Error()}
			}
			return &progcache.ProjectEntry{Project: proj}
		}
	}

	srcs := churnSources(t, 11, 48)
	for _, src := range srcs {
		// Back-to-back same-source lookups: the second must be served
		// from cache while the entry is freshest-resident.
		e1, o1 := cache.Get(src, "sexpr", load(src))
		e2, o2 := cache.Get(src, "sexpr", load(src))
		if e1 == nil || e1.ParseErr != "" {
			t.Fatalf("generated project failed to parse: %s", e1.ParseErr)
		}
		if o1 != progcache.OutcomeMiss {
			t.Fatalf("first lookup of a distinct source was not a miss (outcome %v)", o1)
		}
		if o2 != progcache.OutcomeHit {
			t.Fatalf("immediate repeat was not a cache hit (outcome %v)", o2)
		}
		if e1 != e2 {
			t.Fatalf("repeat returned a different parsed entry")
		}
	}
	st := cache.Stats()
	if st.Misses != int64(len(srcs)) {
		t.Errorf("Misses = %d, want %d (one per distinct source)", st.Misses, len(srcs))
	}
	if st.Hits < int64(len(srcs)) {
		t.Errorf("Hits = %d, want >= %d (one per repeat)", st.Hits, len(srcs))
	}
	if st.Evictions == 0 {
		t.Errorf("Evictions = 0, want > 0: %d distinct projects must not fit %d bytes (resident %d)",
			len(srcs), 16<<10, st.Bytes)
	}
	if st.Bytes > 16<<10 {
		t.Errorf("Bytes = %d, above the %d budget", st.Bytes, 16<<10)
	}
	// The obs series mirror the always-on stats while instrumentation is
	// enabled, tier-labelled "project".
	if d := obs.ProgcacheMisses.With("project").Value() - miss0; d < int64(len(srcs)) {
		t.Errorf("engine_progcache_misses_total{tier=project} moved %d, want >= %d", d, len(srcs))
	}
	if d := obs.ProgcacheEvictions.With("project").Value() - evict0; d <= 0 {
		t.Errorf("engine_progcache_evictions_total{tier=project} did not move")
	}
}

// TestProgcacheSingleflight pins the singleflight front deterministically:
// with one load blocked in flight, every concurrent caller for the same
// key must wait for the leader and share its result — exactly one miss,
// all others shared, and the load body runs once.
func TestProgcacheSingleflight(t *testing.T) {
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)
	shared0 := obs.ProgcacheSharedLoads.With("project").Value()

	p := progcache.NewProjects(1 << 20)
	src, err := parse.PrintProject(gen.Project(gen.Seeds()[1]))
	if err != nil {
		t.Fatal(err)
	}

	const followers = 7
	release := make(chan struct{})
	loads := 0
	ent := &progcache.ProjectEntry{}
	results := make(chan *progcache.ProjectEntry, followers+1)
	outcomes := make(chan progcache.Outcome, followers+1)
	for i := 0; i < followers+1; i++ {
		go func() {
			e, o := p.Get(src, "sexpr", func() *progcache.ProjectEntry {
				loads++ // only the leader runs this; the release gate makes the write ordered
				<-release
				return ent
			})
			results <- e
			outcomes <- o
		}()
	}
	// Followers bump SharedLoads before blocking on the leader's flight,
	// so stats tell us when every caller is accounted for.
	deadline := time.After(10 * time.Second)
	for {
		st := p.Stats()
		if st.Misses == 1 && st.SharedLoads == followers {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("stall waiting for callers: %+v", p.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	var miss, sharedOrHit int
	for i := 0; i < followers+1; i++ {
		if e := <-results; e != ent {
			t.Fatalf("caller %d got a different entry", i)
		}
		switch <-outcomes {
		case progcache.OutcomeMiss:
			miss++
		default:
			sharedOrHit++
		}
	}
	if loads != 1 {
		t.Errorf("load ran %d times, want exactly 1", loads)
	}
	if miss != 1 || sharedOrHit != followers {
		t.Errorf("outcomes: %d miss / %d shared, want 1 / %d", miss, sharedOrHit, followers)
	}
	if d := obs.ProgcacheSharedLoads.With("project").Value() - shared0; d != followers {
		t.Errorf("engine_progcache_shared_loads_total{tier=project} moved %d, want %d", d, followers)
	}
}
