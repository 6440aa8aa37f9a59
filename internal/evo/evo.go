// Package evo is the evolutionary cross-tier stress engine: a
// generational genetic search over gen byte-genomes whose fitness is
// engine coverage — programs are rewarded for reaching rarely-hit paths
// (tree splices, compile fallbacks by reason, cache evictions, async
// mapReduce, worker dispatch) read from the obs registry — and whose
// every survivor is executed through all four tiers:
//
//	tree    the tree-walking interpreter (vm off)
//	vm      the flat bytecode machine (vm on)
//	kernel  the bytecode machine with observability off, which pins that
//	        instrumentation changes no result
//	serve   a live in-process snapserved session over POST /v1/run —
//	        twice, so a cache-replay answer must equal a cold one
//
// Any divergence in values, error strings, stage snapshots, or trace
// lines is shrunk to a minimal reproducer and persisted to a
// content-addressed corpus that reseeds the per-package fuzzers.
package evo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
	_ "repro/internal/core" // hof, mapReduce, parallel and stage primitives
	"repro/internal/evo/gen"
	"repro/internal/evo/oracle"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/runtime"
	"repro/internal/server"
)

// Config parameterizes one stress run. The zero value is usable: a small
// deterministic one-generation pass with no corpus persistence.
type Config struct {
	// Seed fixes the whole run: same seed, same population trajectory
	// (concurrent serving-tier stress adds fitness noise but never
	// changes what a divergence means).
	Seed int64
	// Pop is the population size (default 24).
	Pop int
	// Generations bounds the generation count; 0 means run until
	// Duration elapses (or one generation when Duration is also 0).
	Generations int
	// Duration is the soak budget.
	Duration time.Duration
	// MinPrograms keeps the run going past Duration until this many
	// programs have been through the full four-tier oracle.
	MinPrograms int
	// CorpusDir persists shrunk divergences ("" = no persistence).
	CorpusDir string
	// Sessions adds that many concurrent serving-tier stress workers
	// replaying already-vetted survivors against the live server while
	// evolution continues — production concurrency over the same
	// admission queue, cache, and pool.
	Sessions int
	// ShrinkBudget caps oracle evaluations per shrink (default 400).
	ShrinkBudget int
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
}

// Stats summarizes a finished run.
type Stats struct {
	// Programs counts full four-tier differential evaluations.
	Programs int
	// Generations counts completed evolution rounds.
	Generations int
	// Divergences counts confirmed cross-tier divergences (each one is
	// also returned, shrunk, by Run).
	Divergences int
	// SessionRuns counts the extra concurrent serving-tier replays.
	SessionRuns int64
	// SessionRejects counts 429 admission rejections those replays hit
	// (back-pressure, not a bug).
	SessionRejects int64
}

// Divergence is one confirmed cross-tier disagreement.
type Divergence struct {
	// Name labels pinned-script divergences; "" for evolved genomes.
	Name string
	// Genome is the original diverging genome (nil for pinned scripts).
	Genome gen.Genome
	// Shrunk is the minimized genome still reproducing a divergence.
	Shrunk gen.Genome
	// Blocks counts blocks in the shrunk reproducer's script.
	Blocks int
	// Detail is the oracle's description of the disagreement.
	Detail string
	// Addr is the corpus content address ("" when not persisted).
	Addr string
}

func (c Config) withDefaults() Config {
	if c.Pop <= 0 {
		c.Pop = 24
	}
	if c.ShrinkBudget <= 0 {
		c.ShrinkBudget = 2000
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

type engine struct {
	cfg Config
	rnd *rand.Rand
	h   http.Handler

	// Coverage-rarity state: how many evaluations have hit each obs
	// signal, and how many times each observable outcome has appeared.
	hits     map[string]int64
	outcomes map[string]int

	// Survivor pool the concurrent serving-tier workers replay from.
	mu        sync.Mutex
	survivors []vetted

	stop    chan struct{}
	wg      sync.WaitGroup
	runs    atomic.Int64
	rejects atomic.Int64

	// Serving-tier mismatches observed by concurrent workers, re-checked
	// serially by the main loop before they count as divergences.
	flagged chan gen.Genome
}

// vetted is a program the four-tier oracle already passed, with the
// tier-invariant observables a replay must reproduce.
type vetted struct {
	src    string
	genome gen.Genome
	errs   string
	stage  string
	trace  string
}

func newEngine(cfg Config) *engine {
	rt := runtime.Config{
		MaxConcurrent: 2 + cfg.Sessions,
		MaxQueue:      2 * (2 + cfg.Sessions),
		QueueWait:     10 * time.Second,
	}
	srv := server.New(server.Config{Runtime: rt})
	return &engine{
		cfg:      cfg,
		rnd:      rand.New(rand.NewSource(cfg.Seed)),
		h:        srv.Handler(),
		hits:     map[string]int64{},
		outcomes: map[string]int{},
		stop:     make(chan struct{}),
		flagged:  make(chan gen.Genome, 64),
	}
}

func (e *engine) close() {
	close(e.stop)
	e.wg.Wait()
}

// post runs one serving-tier request against the in-process handler.
func (e *engine) post(src string) (int, server.RunResponse) {
	body, err := json.Marshal(server.RunRequest{Project: src})
	if err != nil {
		return 0, server.RunResponse{}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	e.h.ServeHTTP(w, req)
	var resp server.RunResponse
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	return w.Code, resp
}

// sessionOutcome maps a serving-tier response onto the oracle contract.
// The serving tier reports no value (the reported value reaches it only
// through the generated trailing say), so Value is neutralized to ref.
func sessionOutcome(ref oracle.Outcome, resp server.RunResponse) oracle.Outcome {
	errStr := "<nil>"
	if resp.Status != runtime.StatusOK {
		errStr = resp.Error
	}
	return oracle.Outcome{
		Value: ref.Value,
		Err:   errStr,
		Stage: strings.Join(resp.Stage, "\n"),
		Trace: strings.Join(resp.Trace, "\n"),
	}
}

// signals snapshots the obs counters the fitness function rewards.
func signals() map[string]int64 {
	m := map[string]int64{
		"vm-tree-calls": obs.VMTreeCalls.Value(),
		"vm-yields":     obs.VMYields.Value(),
		"vm-lowerings":  obs.VMLowerings.Value(),
		"mr-runs":       obs.MRRuns.Value(),
		"pool-jobs":     obs.PoolJobs.Total(),
		"compile-hits":  obs.CompileHits.Value(),
	}
	for _, r := range obs.CompileReasons {
		m["fallback-"+r] = obs.CompileFallbacks.With(r).Value()
	}
	for _, tier := range []string{"project", "ring"} {
		m["evict-"+tier] = obs.ProgcacheEvictions.With(tier).Value()
	}
	return m
}

// score folds coverage deltas and outcome novelty into a fitness value:
// each signal pays out proportionally to how rarely past programs hit it,
// log-damped so a million yields doesn't drown everything else, with a
// mild size penalty so programs stay shrinkable.
func (e *engine) score(before, after map[string]int64, outKey string, size int) float64 {
	var fit float64
	for sig, b := range before {
		d := after[sig] - b
		if d <= 0 {
			continue
		}
		e.hits[sig]++
		fit += (1 + math.Log2(float64(d))) * 16 / float64(1+e.hits[sig])
	}
	e.outcomes[outKey]++
	fit += 24 / float64(e.outcomes[outKey])
	return fit - float64(size)/64
}

// evalScript runs one script through all four tiers. It returns the
// coverage fitness and, on any cross-tier disagreement, the oracle's
// description. The caller owns shrinking and recording.
func (e *engine) evalScript(script *blocks.Script) (fit float64, detail string) {
	src, err := parse.PrintProject(gen.WrapScript(script))
	if err != nil {
		// Unprintable programs cannot reach the serving tier — a
		// generator bug by construction.
		return 0, fmt.Sprintf("program is unprintable: %v", err)
	}

	obs.SetEnabled(true)
	tree, _ := oracle.Run(script, false)
	before := signals()
	bc, _ := oracle.Run(script, true)
	after := signals()
	if d := oracle.Diff("tree", tree, "vm", bc); d != "" {
		return 0, d
	}

	// Kernel tier: the vm again with observability off. Every engine
	// path is the same with the switch off or on, so this pins that
	// instrumentation (spans, phase metrics, compile counters) changes no
	// result.
	obs.SetEnabled(false)
	kern, _ := oracle.Run(script, true)
	obs.SetEnabled(true)
	if d := oracle.Diff("tree", tree, "kernel", kern); d != "" {
		return 0, d
	}

	// Serving tier, twice: the second answer comes through the program
	// cache and must match the first byte for byte on every semantic
	// field (latency fields excluded by construction).
	code1, r1 := e.post(src)
	code2, r2 := e.post(src)
	if code1 != http.StatusOK {
		return 0, fmt.Sprintf("serving tier refused a vetted program: HTTP %d (status %q, error %q)",
			code1, r1.Status, r1.Error)
	}
	if code2 != http.StatusOK {
		return 0, fmt.Sprintf("serving-tier replay refused a cached program: HTTP %d (status %q, error %q)",
			code2, r2.Status, r2.Error)
	}
	s1, s2 := sessionOutcome(tree, r1), sessionOutcome(tree, r2)
	if d := oracle.Diff("serve", s1, "replay", s2); d != "" {
		return 0, "cache-replay divergence: " + d
	}
	if strings.Join(r1.Warnings, "\n") != strings.Join(r2.Warnings, "\n") {
		return 0, fmt.Sprintf("cache-replay warning divergence:\n first: %v\n replay: %v",
			r1.Warnings, r2.Warnings)
	}
	if d := oracle.Diff("tree", tree, "serve", s1); d != "" {
		return 0, d
	}

	return e.score(before, after, tree.Key(), gen.CountBlocks(script)), ""
}

// diverges is the shrinker's predicate: does this genome still produce
// any cross-tier disagreement?
func (e *engine) diverges(g gen.Genome) (string, bool) {
	_, d := e.evalScript(gen.Script(g))
	return d, d != ""
}

// record shrinks and persists one genome divergence.
func (e *engine) record(g gen.Genome, detail string, stats *Stats, out *[]Divergence) {
	stats.Divergences++
	shrunk := e.shrink(g)
	script := gen.Script(shrunk)
	div := Divergence{
		Genome: append(gen.Genome(nil), g...),
		Shrunk: shrunk,
		Blocks: gen.CountBlocks(script),
		Detail: detail,
	}
	if d, still := e.diverges(shrunk); still {
		div.Detail = d
	}
	if e.cfg.CorpusDir != "" {
		addr, err := writeCorpus(e.cfg.CorpusDir, div)
		if err != nil {
			e.cfg.Log("corpus write failed: %v", err)
		} else {
			div.Addr = addr
		}
	}
	e.cfg.Log("DIVERGENCE (%d blocks shrunk): %s", div.Blocks, firstLine(div.Detail))
	*out = append(*out, div)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// sessionWorker replays vetted survivors against the live server while
// the main loop keeps evolving — production concurrency over the same
// admission queue, caches, and worker pool. A replay that disagrees with
// the vetted observables is flagged for serial re-checking; 429s are
// back-pressure, not bugs.
func (e *engine) sessionWorker(seed int64) {
	defer e.wg.Done()
	rnd := rand.New(rand.NewSource(seed))
	for {
		select {
		case <-e.stop:
			return
		default:
		}
		e.mu.Lock()
		n := len(e.survivors)
		var v vetted
		if n > 0 {
			v = e.survivors[rnd.Intn(n)]
		}
		e.mu.Unlock()
		if n == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		code, resp := e.post(v.src)
		e.runs.Add(1)
		// A short breather keeps the replay load from starving the main
		// loop's own serving-tier runs out of the admission queue.
		time.Sleep(2 * time.Millisecond)
		switch {
		case code == http.StatusTooManyRequests:
			e.rejects.Add(1)
		case code != http.StatusOK,
			errOf(resp) != v.errs,
			strings.Join(resp.Stage, "\n") != v.stage,
			strings.Join(resp.Trace, "\n") != v.trace:
			select {
			case e.flagged <- v.genome:
			default:
			}
		}
	}
}

func errOf(resp server.RunResponse) string {
	if resp.Status != runtime.StatusOK {
		return resp.Error
	}
	return "<nil>"
}

// Run executes the stress engine and returns its stats plus every
// confirmed divergence, shrunk. A healthy engine returns zero
// divergences; anything else is a bug in one of the four tiers (or, with
// an installed program mutator, the injected one).
func Run(cfg Config) (Stats, []Divergence) {
	cfg = cfg.withDefaults()
	e := newEngine(cfg)
	defer e.close()

	prevObs := obs.Enabled()
	defer obs.SetEnabled(prevObs)

	// The grammar guarantees termination but not modest memory or speed:
	// a join-doubling loop is exponential in a linear trip count, and a
	// foreach that inserts into its own list chases its tail until some
	// limit fires. The process-wide value caps turn both into the same
	// deterministic cap error on every tier (the daemon runs with caps
	// anyway). The list cap is deliberately small — positional inserts
	// are O(n), so cap growth keeps tail-chasers out of quadratic time.
	prevList, prevText := interp.ValueCaps()
	interp.SetValueCaps(5_000, 1<<16)
	defer interp.SetValueCaps(prevList, prevText)

	var stats Stats
	var divs []Divergence

	// The mapReduce parity edges run before any evolution: pinned,
	// named, unconditional.
	for _, p := range gen.PinnedScripts() {
		stats.Programs++
		if _, d := e.evalScript(p.Script); d != "" {
			stats.Divergences++
			divs = append(divs, Divergence{Name: p.Name, Detail: d,
				Blocks: gen.CountBlocks(p.Script)})
			cfg.Log("DIVERGENCE in pinned %s: %s", p.Name, firstLine(d))
		}
	}

	for i := 0; i < cfg.Sessions; i++ {
		e.wg.Add(1)
		go e.sessionWorker(cfg.Seed + int64(i) + 1)
	}

	type scored struct {
		g   gen.Genome
		fit float64
	}
	pop := gen.Seeds()
	for len(pop) < cfg.Pop {
		pop = append(pop, gen.Random(e.rnd, 8+e.rnd.Intn(48)))
	}
	pop = pop[:cfg.Pop]

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	done := func() bool {
		if stats.Programs < cfg.MinPrograms {
			return false
		}
		if cfg.Generations > 0 {
			return stats.Generations >= cfg.Generations
		}
		if cfg.Duration > 0 {
			return time.Now().After(deadline)
		}
		return stats.Generations >= 1
	}

	for !done() {
		ranked := make([]scored, 0, len(pop))
		for _, g := range pop {
			stats.Programs++
			g := g
			watchdog := time.AfterFunc(5*time.Second, func() {
				cfg.Log("slow program (still running after 5s): %x", g)
			})
			fit, detail := e.evalScript(gen.Script(g))
			watchdog.Stop()
			if detail != "" {
				e.record(g, detail, &stats, &divs)
				continue
			}
			ranked = append(ranked, scored{g, fit})
			if src, err := parse.PrintProject(gen.Project(g)); err == nil {
				tree, _ := oracle.Run(gen.Script(g), false)
				e.mu.Lock()
				e.survivors = append(e.survivors, vetted{
					src: src, genome: g,
					errs: tree.Err, stage: tree.Stage, trace: tree.Trace,
				})
				if len(e.survivors) > 256 {
					e.survivors = e.survivors[len(e.survivors)-256:]
				}
				e.mu.Unlock()
			}
		}

		// Serial re-check of anything the concurrent workers flagged:
		// only a disagreement that reproduces under the full oracle
		// counts.
		for drained := false; !drained; {
			select {
			case g := <-e.flagged:
				stats.Programs++
				if _, d := e.evalScript(gen.Script(g)); d != "" {
					e.record(g, d, &stats, &divs)
				}
			default:
				drained = true
			}
		}

		stats.Generations++

		// Tournament-free truncation selection: top half breeds.
		for i := 1; i < len(ranked); i++ {
			for j := i; j > 0 && ranked[j].fit > ranked[j-1].fit; j-- {
				ranked[j], ranked[j-1] = ranked[j-1], ranked[j]
			}
		}
		elite := len(ranked) / 2
		if elite < 2 {
			elite = len(ranked)
		}
		next := make([]gen.Genome, 0, cfg.Pop)
		for i := 0; i < elite && i < len(ranked); i++ {
			next = append(next, ranked[i].g)
		}
		for len(next) < cfg.Pop {
			switch {
			case len(ranked) == 0 || e.rnd.Intn(6) == 0:
				next = append(next, gen.Random(e.rnd, 8+e.rnd.Intn(48)))
			case len(ranked) >= 2 && e.rnd.Intn(3) == 0:
				a := ranked[e.rnd.Intn(elite)].g
				b := ranked[e.rnd.Intn(len(ranked))].g
				next = append(next, gen.Crossover(e.rnd, a, b))
			default:
				next = append(next, gen.Mutate(e.rnd, ranked[e.rnd.Intn(max(elite, 1))].g))
			}
		}
		pop = next

		if stats.Generations%10 == 0 {
			cfg.Log("gen %d: %d programs, %d divergences, %d session runs",
				stats.Generations, stats.Programs, stats.Divergences, e.runs.Load())
		}
	}

	stats.SessionRuns = e.runs.Load()
	stats.SessionRejects = e.rejects.Load()
	return stats, divs
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
