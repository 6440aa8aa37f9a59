package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/progcache"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vclock"
	"repro/internal/vm"
)

// span is one timed call. Spans of one request share Req; Parent is the
// enclosing span's ID, or -1 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
	Hit    bool          `json:"hit,omitempty"` // progcache.get: served by a resident entry
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory; write stores them at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(req, parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0) }

// selfTimes sets each span's self time: its duration minus the part of it
// its children cover.
func (t *tracer) selfTimes() {
	kids := map[int][]*span{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], &t.spans[i])
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.dur() - covered
	}
}

func (t *tracer) write(path string) error {
	t.selfTimes()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// durations collects the durations of the spans named name that keep
// returns true for.
func (t *tracer) durations(name string, keep func(*span) bool) []time.Duration {
	var out []time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && (keep == nil || keep(s)) {
			out = append(out, s.dur())
		}
	}
	return out
}

// snapservedConfig is the server configuration snapserved builds from its
// default flags.
func snapservedConfig() server.Config {
	return server.Config{Runtime: runtime.Config{
		MaxConcurrent: 4,
		QueueWait:     5 * time.Second,
		Defaults:      runtime.DefaultLimits,
		Ceiling:       runtime.DefaultLimits,
	}}
}

// serve posts one request to an in-process handler.
func serve(h http.Handler, r *request) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// counters snapshots the engine series the per-layer metrics read.
type counters struct {
	hits, misses, evictions  map[string]int64
	vmOps, vmYields, vmTree  int64
	vmLowerings              int64
	compileHits, compileFall int64
	queueSum, jobSum         float64
	queueN, jobN             int64
	chunks, jobs             int64
	mrRuns                   int64
	mrSum                    map[string]float64
	mrN                      map[string]int64
	colLists, colUpgrades    int64
}

var tiers = []string{"project", "script", "ring"}
var phases = []string{"map", "shuffle", "reduce"}

func snapshot() counters {
	c := counters{hits: map[string]int64{}, misses: map[string]int64{}, evictions: map[string]int64{},
		mrSum: map[string]float64{}, mrN: map[string]int64{}}
	for _, t := range tiers {
		c.hits[t] = obs.ProgcacheHits.With(t).Value()
		c.misses[t] = obs.ProgcacheMisses.With(t).Value()
		c.evictions[t] = obs.ProgcacheEvictions.With(t).Value()
	}
	c.vmOps, c.vmYields, c.vmTree = obs.VMOps.Value(), obs.VMYields.Value(), obs.VMTreeCalls.Value()
	c.vmLowerings = obs.VMLowerings.Value()
	c.compileHits, c.compileFall = obs.CompileHits.Value(), obs.CompileFallbacks.Total()
	c.queueSum, c.queueN = obs.PoolQueueWaitSeconds.Sum(), obs.PoolQueueWaitSeconds.Count()
	c.jobSum, c.jobN = obs.PoolJobSeconds.Sum(), obs.PoolJobSeconds.Count()
	c.chunks, c.jobs = obs.PoolChunks.Value(), obs.PoolJobs.Total()
	c.mrRuns = obs.MRRuns.Value()
	for _, p := range phases {
		h := obs.MRPhaseSeconds.With(p)
		c.mrSum[p], c.mrN[p] = h.Sum(), h.Count()
	}
	c.colLists, c.colUpgrades = obs.ListColumnarLists.Value(), obs.ListColumnarUpgrades.Value()
	return c
}

// ratio is a/b, or 0 when b is 0 (nothing of the kind happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun holds one traced run's state.
type tracedRun struct {
	tr      *tracer
	sample  []request
	replies [][]byte      // the handler's reply to each sampled request
	pass    time.Duration // how long one replay of the sample took
	m       map[string]metric
	checked int
	failed  int
}

func (t *tracedRun) set(name string, v float64, unit string) { t.m[name] = metric{v, unit} }

func (t *tracedRun) verify(r *request, code int, body []byte) {
	t.checked++
	if err := check(r, code, body, nil); err != nil {
		t.failed++
		fmt.Printf("  failure: %s: %v\n", r.kind, err)
	}
}

// runTraced replays a fixed sample of the workload in process, with obs
// on, and reports the per-layer metrics.
func runTraced(name string, spec workloadSpec, seed int64, outDir string) (*result, error) {
	// The sample is an open-loop plan of its own at the workload's rate, or
	// the head of the closed-loop cycle and its codegen tail.
	sampleSpan := time.Duration(float64(spec.Sample) / max(spec.RateRPS, 1) * float64(time.Second))
	pl, err := buildPlan(".", name, spec, seed, spec.Sample, sampleSpan)
	if err != nil {
		return nil, err
	}
	sample := slices.Concat(pl.reqs[:min(spec.Sample, len(pl.reqs))], pl.tail[:min(len(pl.tail), spec.Sample)])
	t := &tracedRun{tr: &tracer{t0: time.Now()}, sample: sample, m: map[string]metric{}}
	obs.SetEnabled(true)

	srv := server.New(snapservedConfig())
	for i := range pl.warm {
		serve(srv.Handler(), &pl.warm[i])
	}
	t.counterPhase(srv)
	t.layerPhase()
	t.overheadPhase(pl.warm)
	if err := t.shardPhase(pl.warm); err != nil {
		return nil, err
	}
	lag, err := lagPhase(spec, pl)
	if err != nil {
		return nil, err
	}
	t.set("loadgen.lag_p99_ms", ms(lag), "ms")
	t.report()
	if err := t.tr.write(filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed))); err != nil {
		return nil, err
	}
	return &result{Correct: t.failed == 0, Attempted: t.checked, Failed: t.failed, Metrics: t.m}, nil
}

// runtimeReply is the part of a /v1/run reply the runtime and interp
// metrics read.
type runtimeReply struct {
	QueueMS int64 `json:"queue_ms"`
	Rounds  int64 `json:"rounds"`
	Steps   int64 `json:"steps"`
}

// counterPhase replays the sample once through the real handler, timing
// each call, and reads the engine counters before and after.
func (t *tracedRun) counterPhase(srv *server.Server) {
	h := srv.Handler()
	// Each session records an obs span holding its run time at full
	// resolution; the reply's run_ms is whole milliseconds. Retention is
	// raised so that none of this phase's spans is overwritten.
	obs.SetSpanRetention(1 << 16)
	before, rejected0 := snapshot(), srv.Manager().Stats().Rejected
	start := time.Now()
	var queue, run []time.Duration
	var rounds, steps, runs float64
	t.replies = make([][]byte, len(t.sample))
	for i := range t.sample {
		r := &t.sample[i]
		if r.runaway() {
			continue // replayed after the counters are read: see below
		}
		id := t.tr.begin(i, -1, "server.handler")
		code, body := serve(h, r)
		t.tr.end(id)
		t.replies[i] = body
		t.verify(r, code, body)
		if r.path != runPath {
			continue
		}
		var rr runtimeReply
		if json.Unmarshal(body, &rr) == nil {
			queue = append(queue, time.Duration(rr.QueueMS)*time.Millisecond)
			rounds += float64(rr.Rounds)
			steps += float64(rr.Steps)
			runs++
		}
	}
	a := snapshot()
	b := before
	t.pass = time.Since(start)
	for _, s := range obs.Spans() {
		if s.Kind == "session" {
			run = append(run, s.Dur)
		}
	}
	// A runaway loop executes as many ops as its 20 ms allow, which
	// depends on the host's speed, so its work stays out of the per-request
	// counts; its reply is still checked.
	for i := range t.sample {
		if r := &t.sample[i]; r.runaway() {
			code, body := serve(h, r)
			t.replies[i] = body
			t.verify(r, code, body)
		}
	}
	d := func(x, y int64) float64 { return float64(x - y) }
	n := float64(len(t.sample))
	for _, tier := range tiers {
		t.set("progcache."+tier+"_hit_ratio", ratio(d(a.hits[tier], b.hits[tier]), d(a.hits[tier], b.hits[tier])+d(a.misses[tier], b.misses[tier])), "ratio")
	}
	t.set("progcache.project_evictions_per_kreq", 1000*d(a.evictions["project"], b.evictions["project"])/n, "count/kreq")
	t.set("runtime.queue_ms_p99", ms(percentile(queue, 0.99)), "ms")
	t.set("runtime.run_ms_p50", ms(percentile(run, 0.50)), "ms")
	t.set("runtime.rejected", float64(srv.Manager().Stats().Rejected-rejected0), "count")
	t.set("interp.rounds_per_req", ratio(rounds, runs), "count")
	t.set("interp.steps_per_req", ratio(steps, runs), "count")
	t.set("vm.ops_per_req", ratio(d(a.vmOps, b.vmOps), runs), "count")
	t.set("vm.tree_calls_per_req", ratio(d(a.vmTree, b.vmTree), runs), "count")
	t.set("vm.yields_per_req", ratio(d(a.vmYields, b.vmYields), runs), "count")
	t.set("vm.lowerings_per_req", ratio(d(a.vmLowerings, b.vmLowerings), runs), "count")
	t.set("compile.hit_ratio", ratio(d(a.compileHits, b.compileHits), d(a.compileHits, b.compileHits)+d(a.compileFall, b.compileFall)), "ratio")
	t.set("workers.queue_wait_us", 1e6*ratio(a.queueSum-b.queueSum, d(a.queueN, b.queueN)), "us")
	t.set("workers.job_us", 1e6*ratio(a.jobSum-b.jobSum, d(a.jobN, b.jobN)), "us")
	t.set("workers.chunks_per_job", ratio(d(a.chunks, b.chunks), d(a.jobs, b.jobs)), "count")
	for _, p := range phases {
		t.set("mapreduce."+p+"_us", 1e6*ratio(a.mrSum[p]-b.mrSum[p], d(a.mrN[p], b.mrN[p])), "us")
	}
	t.set("mapreduce.runs_per_req", ratio(d(a.mrRuns, b.mrRuns), runs), "count")
	t.set("value.columnar_lists_per_req", ratio(d(a.colLists, b.colLists), runs), "count")
	t.set("value.columnar_upgrades_per_req", ratio(d(a.colUpgrades, b.colUpgrades), runs), "count")
	t.set("server.handler_us", us(percentile(t.tr.durations("server.handler", func(s *span) bool {
		r := &t.sample[s.Req]
		return r.path == runPath && !r.runaway()
	}), 0.5)), "us")
}

// layerPhase rebuilds each sampled request from the layers' public
// functions, in the order the server calls them, under one root span per
// request: JSON decode, Tier A lookup (which hashes the body; parse and
// lint run inside it on a miss), machine build, script lowering, ring
// compiles or the emitter, and the JSON encode of the reply.
func (t *tracedRun) layerPhase() {
	cache := progcache.NewProjects(progcache.DefaultProjectBudget)
	for i := range t.sample {
		root := t.tr.begin(i, -1, "request")
		t.layers(cache, i, root, &t.sample[i], t.replies[i])
		t.tr.end(root)
	}
	med := func(name string, keep func(*span) bool) float64 {
		return us(percentile(t.tr.durations(name, keep), 0.5))
	}
	t.set("server.json_us", us(percentile(t.perRequest("server.json"), 0.5)), "us")
	t.set("progcache.get_hit_us", med("progcache.get", func(s *span) bool { return s.Hit }), "us")
	t.set("parse.project_us", med("parse.project", nil), "us")
	t.set("lint.project_us", med("lint.project", nil), "us")
	t.set("interp.machine_build_us", med("interp.machine_build", nil), "us")
	t.set("vm.lower_us", us(percentile(t.perRequest("vm.lower"), 0.5)), "us")
	t.set("compile.ring_us", med("compile.ring", nil), "us")
	t.set("codegen.emit_us", med("codegen.emit", nil), "us")
}

// perRequest sums the spans named name within each request that has any.
func (t *tracedRun) perRequest(name string) []time.Duration {
	sum := map[int]time.Duration{}
	for i := range t.tr.spans {
		if s := &t.tr.spans[i]; s.Name == name {
			sum[s.Req] += s.dur()
		}
	}
	out := make([]time.Duration, 0, len(sum))
	for _, d := range sum {
		out = append(out, d)
	}
	return out
}

func (t *tracedRun) layers(cache *progcache.Projects, req, root int, r *request, reply []byte) {
	tr := t.tr
	var project, format, lang string
	id := tr.begin(req, root, "server.json")
	if r.path == runPath {
		var rq server.RunRequest
		json.NewDecoder(bytes.NewReader(r.body)).Decode(&rq) //nolint:errcheck // generated bodies decode
		project, format = rq.Project, rq.Format
	} else {
		var rq server.CodegenRequest
		json.NewDecoder(bytes.NewReader(r.body)).Decode(&rq) //nolint:errcheck // generated bodies decode
		project, format, lang = rq.Project, rq.Format, rq.Lang
	}
	tr.end(id)

	id = tr.begin(req, root, "progcache.get")
	ent, outcome := cache.Get(project, format, func() *progcache.ProjectEntry {
		pid := tr.begin(req, id, "parse.project")
		p, err := decodeProject(project)
		tr.end(pid)
		if err != nil {
			return &progcache.ProjectEntry{ParseErr: err.Error()}
		}
		lid := tr.begin(req, id, "lint.project")
		lint.Project(p)
		tr.end(lid)
		return &progcache.ProjectEntry{Project: p}
	})
	tr.end(id)
	tr.spans[id].Hit = outcome == progcache.OutcomeHit
	if ent.Project == nil {
		return
	}
	script := greenFlagScript(ent.Project)

	if r.path == codegenPath {
		id = tr.begin(req, root, "codegen.emit")
		emit(script, lang) //nolint:errcheck // checked against the reply in the counter phase
		tr.end(id)
		t.encode(req, root, server.CodegenResponse{}, reply)
		return
	}
	id = tr.begin(req, root, "interp.machine_build")
	interp.NewMachine(ent.Project, vclock.New())
	tr.end(id)
	for _, sp := range ent.Project.Sprites {
		for _, hs := range sp.Scripts {
			if hs.Hat != blocks.HatGreenFlag {
				continue
			}
			id = tr.begin(req, root, "vm.lower")
			vm.LowerScript(hs.Script)
			tr.end(id)
			for _, ring := range rings(hs.Script) {
				id = tr.begin(req, root, "compile.ring")
				compile.Ring(ring)
				tr.end(id)
			}
		}
	}
	t.encode(req, root, server.RunResponse{}, reply)
}

// encode times the server's reply encoding of the handler's own reply.
func (t *tracedRun) encode(req, root int, v any, reply []byte) {
	switch p := v.(type) {
	case server.RunResponse:
		json.Unmarshal(reply, &p) //nolint:errcheck // the handler's own reply
		v = p
	case server.CodegenResponse:
		json.Unmarshal(reply, &p) //nolint:errcheck // the handler's own reply
		v = p
	}
	id := t.tr.begin(req, root, "server.json")
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // io.Discard
	t.tr.end(id)
}

// rings collects the ring literals of a script, as the engine ships them.
func rings(s *blocks.Script) []*blocks.Ring {
	var out []*blocks.Ring
	var node func(n blocks.Node)
	block := func(b *blocks.Block) {
		for _, in := range b.Inputs {
			node(in)
		}
	}
	node = func(n blocks.Node) {
		switch x := n.(type) {
		case *blocks.Block:
			block(x)
		case blocks.ScriptNode:
			for _, b := range x.Script.Blocks {
				block(b)
			}
		case blocks.RingNode:
			out = append(out, &blocks.Ring{Body: x.Body, Params: x.Params})
			if sc, ok := x.Body.(*blocks.Script); ok {
				for _, b := range sc.Blocks {
					block(b)
				}
			} else {
				node(x.Body)
			}
		}
	}
	for _, b := range s.Blocks {
		block(b)
	}
	return out
}

// timedSample is the part of the sample the latency comparisons replay:
// every request but the runaway loops, whose 20 ms deadline would swamp
// the medians.
func (t *tracedRun) timedSample() []*request {
	var out []*request
	for i := range t.sample {
		if !t.sample[i].runaway() {
			out = append(out, &t.sample[i])
		}
	}
	return out
}

// replayBudget bounds the time the overhead and shard comparisons each
// spend replaying the sample.
const replayBudget = 8 * time.Second

// rounds is how many times the overhead and shard comparisons replay the
// sample of n requests, three variants each: enough for about 300 calls
// per variant, as far as replayBudget allows, and at least three.
func (t *tracedRun) rounds(n int) int {
	byTime := int(replayBudget / (3*t.pass + 1))
	return max(3, min(300/max(n, 1), byTime))
}

// overheadPhase measures what the server's obs default costs, and what
// this benchmark's span recording costs, as p50 ratios over interleaved
// replays of the sample on a warm server.
func (t *tracedRun) overheadPhase(warm []request) {
	h := server.New(snapservedConfig()).Handler()
	sample := t.timedSample()
	for i := range warm {
		serve(h, &warm[i])
	}
	for _, r := range sample {
		serve(h, r)
	}
	var off, on, traced []time.Duration
	scratch := &tracer{t0: time.Now()}
	variants := []func(r *request){
		func(r *request) {
			obs.SetEnabled(false)
			t0 := time.Now()
			serve(h, r)
			off = append(off, time.Since(t0))
			obs.SetEnabled(true)
		},
		func(r *request) {
			t0 := time.Now()
			serve(h, r)
			on = append(on, time.Since(t0))
		},
		func(r *request) {
			t0 := time.Now()
			id := scratch.begin(0, -1, "server.handler")
			serve(h, r)
			scratch.end(id)
			traced = append(traced, time.Since(t0))
		},
	}
	for k := t.rounds(len(sample)); k > 0; k-- {
		for i, r := range sample {
			// Rotate which variant goes first, so none always runs on the
			// state its predecessor warmed.
			for j := range variants {
				variants[(i+k+j)%len(variants)](r)
			}
		}
	}
	pOff, pOn, pTr := percentile(off, 0.5), percentile(on, 0.5), percentile(traced, 0.5)
	t.set("obs.overhead_pct", 100*(float64(pOn)/float64(pOff)-1), "%")
	t.set("trace.overhead_pct", 100*(float64(pTr)/float64(pOn)-1), "%")
}

// countingListener counts accepted connections: each is one dial by a
// client of the backend.
type countingListener struct {
	net.Listener
	accepts *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// shardPhase prices the router hop: each sampled request is served
// directly by an in-process snapserved handler, through a shard.Router
// over two loopback backends with its default client (a fresh dial per
// forward), and through one whose client pools keep-alive connections.
func (t *tracedRun) shardPhase(warm []request) error {
	var accepts atomic.Int64
	var urls []string
	var backends []*server.Server
	var https []*http.Server
	done := make(chan struct{}, 2)
	defer func() {
		for _, hs := range https {
			hs.Close()
			<-done
		}
	}()
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := server.New(snapservedConfig())
		hs := &http.Server{Handler: srv.Handler()}
		go func() {
			hs.Serve(countingListener{ln, &accepts}) //nolint:errcheck // ends at Close
			done <- struct{}{}
		}()
		backends, https = append(backends, srv), append(https, hs)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	// Probes run once an hour, so every accept counted is a forward.
	dialing, err := shard.New(shard.Config{Backends: urls, HealthInterval: time.Hour})
	if err != nil {
		return err
	}
	defer dialing.Close()
	pooled, err := shard.New(shard.Config{Backends: urls, HealthInterval: time.Hour,
		Client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}})
	if err != nil {
		return err
	}
	defer pooled.Close()
	direct := server.New(snapservedConfig()).Handler()

	// Affinity: route every distinct body once and count how many Tier A
	// elaborations the cluster paid for it.
	missesOf := func() (n int64) {
		for _, b := range backends {
			n += b.CacheStats().Misses
		}
		return n
	}
	sample := t.timedSample()
	distinct := map[string]bool{} // Tier A keys: a run and a codegen request of one project share one
	route := func(r *request) {
		var body struct{ Project, Format string }
		json.Unmarshal(r.body, &body) //nolint:errcheck // generated bodies decode
		distinct[body.Format+"\x00"+body.Project] = true
		serve(dialing.Handler(), r)
	}
	m0 := missesOf()
	for i := range warm {
		route(&warm[i])
	}
	for _, r := range sample {
		route(r)
	}
	t.set("shard.affinity", ratio(float64(missesOf()-m0), float64(len(distinct))), "ratio")
	for i := range warm {
		serve(direct, &warm[i])
		serve(pooled.Handler(), &warm[i])
	}

	st0 := dialing.Stats()
	var hop, hopPooled []time.Duration
	var dials, forwards int64
	for k := t.rounds(len(sample)); k > 0; k-- {
		for i, r := range sample {
			// Each path serves the body once untimed, so that the timed calls
			// all find it in Tier A even when the sample outgrows the cache:
			// otherwise a fresh body misses on one path and hits on another,
			// and the difference is parse time, not the hop. The pooled
			// router forwards to the backend the dialing one just warmed.
			serve(direct, r)
			serve(dialing.Handler(), r)
			t0 := time.Now()
			serve(direct, r)
			d := time.Since(t0)
			a0 := accepts.Load()
			id := t.tr.begin(i, -1, "shard.route")
			code, body := serve(dialing.Handler(), r)
			t.tr.end(id)
			dials += accepts.Load() - a0
			forwards++
			t.verify(r, code, body)
			t0 = time.Now()
			serve(pooled.Handler(), r)
			p := time.Since(t0)
			hop = append(hop, t.tr.spans[id].dur()-d)
			hopPooled = append(hopPooled, p-d)
		}
	}
	st1 := dialing.Stats()
	t.set("shard.hop_us", us(percentile(hop, 0.5)), "us")
	t.set("shard.hop_pooled_us", us(percentile(hopPooled, 0.5)), "us")
	t.set("shard.dials_per_req", ratio(float64(dials), float64(forwards)), "count")
	t.set("shard.retries", float64(st1.Retries-st0.Retries), "count")
	t.set("shard.rejected", float64(st1.Rejected-st0.Rejected), "count")
	return nil
}

// lagPhase replays the sample's schedule open-loop against an in-process
// server on a loopback listener and returns the generator's p99 send
// lateness. A closed loop has no schedule to fall behind.
func lagPhase(spec workloadSpec, pl *plan) (time.Duration, error) {
	if spec.Loop != "open" {
		return 0, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: server.New(snapservedConfig()).Handler()}
	done := make(chan struct{})
	go func() {
		hs.Serve(ln) //nolint:errcheck // ends at Close
		close(done)
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	base := "http://" + ln.Addr().String()
	if err := warmUp(base, pl.warm); err != nil {
		return 0, err
	}
	n := min(len(pl.reqs), spec.Sample)
	clients := newClients(nproc())
	defer closeClients(clients)
	outs := openLoop(clients, base, &plan{reqs: pl.reqs[:n], at: pl.at[:n]})
	lag := make([]time.Duration, len(outs))
	for i := range outs {
		lag[i] = outs[i].start - outs[i].due
	}
	return percentile(lag, 0.99), nil
}

// report prints, for each request kind, the handler's median and how the
// layer pass divides up: each layer's share of the summed root "request"
// spans. The layer spans time the layers' public functions in one pass
// outside the handler, so shares are comparable within a kind, and the
// handler's median is printed beside them rather than summed with them.
// This is the table the notes file quotes.
func (t *tracedRun) report() {
	layers := []string{"server.json", "progcache.get", "interp.machine_build", "vm.lower", "compile.ring", "codegen.emit"}
	type row struct {
		handler, request []time.Duration
		layer            map[string]time.Duration // summed over the kind's requests
		total            time.Duration            // summed root spans
	}
	rows := map[string]*row{}
	rowOf := func(req int) *row {
		k := t.sample[req].kind
		if rows[k] == nil {
			rows[k] = &row{layer: map[string]time.Duration{}}
		}
		return rows[k]
	}
	for i := range t.tr.spans {
		s := &t.tr.spans[i]
		switch {
		case s.Name == "server.handler":
			rw := rowOf(s.Req)
			rw.handler = append(rw.handler, s.dur())
		case s.Name == "request":
			rw := rowOf(s.Req)
			rw.request = append(rw.request, s.dur())
			rw.total += s.dur()
		case s.Parent >= 0 && t.tr.spans[s.Parent].Name == "request":
			rowOf(s.Req).layer[s.Name] += s.dur()
		}
	}
	kinds := make([]string, 0, len(rows))
	for k := range rows {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("%-20s %5s %11s %10s", "kind", "n", "handler_us", "layers_us")
	for _, l := range layers {
		fmt.Printf(" %21s", l+"%")
	}
	fmt.Printf(" %7s\n", "rest%")
	for _, k := range kinds {
		r := rows[k]
		fmt.Printf("%-20s %5d %11.1f %10.1f", k, len(r.request), us(percentile(r.handler, 0.5)), us(percentile(r.request, 0.5)))
		rest := 100.0
		for _, l := range layers {
			share := 100 * ratio(float64(r.layer[l]), float64(r.total))
			rest -= share
			fmt.Printf(" %21.1f", share)
		}
		fmt.Printf(" %7.1f\n", rest)
	}
	names := make([]string, 0, len(t.m))
	for n := range t.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.3f %s\n", n, t.m[n].Value, t.m[n].Unit)
	}
}
