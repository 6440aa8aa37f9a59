package shard

// The router e2e suite: real snapserved backends on real loopback
// listeners, the router in front, and the cluster behaviors the ISSUE
// demands pinned under -race — failover with zero failed requests when a
// backend dies mid-traffic, ejection and re-admission, per-shard cache
// affinity measurably better than random routing, and routing never
// changing program semantics (single backend, router, and internal/dist
// all agree on the same mapReduce).

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/value"
)

// e2eBackend is one real snapserved: server.New behind a real listener,
// killable and restartable on the same address.
type e2eBackend struct {
	t    *testing.T
	addr string
	srv  *server.Server
	hs   *http.Server
}

func startE2EBackend(t *testing.T) *e2eBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &e2eBackend{
		t:    t,
		addr: ln.Addr().String(),
		srv:  server.New(server.Config{Runtime: runtime.Config{MaxConcurrent: 8, MaxQueue: 16}}),
	}
	b.serve(ln)
	t.Cleanup(func() { b.hs.Close() })
	return b
}

func (b *e2eBackend) serve(ln net.Listener) {
	b.hs = &http.Server{Handler: b.srv.Handler()}
	go b.hs.Serve(ln) //nolint:errcheck
}

func (b *e2eBackend) url() string { return "http://" + b.addr }

// kill drains the backend the way SIGTERM would: the listener closes
// immediately (new connections get dial errors — the retryable class)
// and in-flight requests finish.
func (b *e2eBackend) kill() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b.hs.Shutdown(ctx) //nolint:errcheck
}

// restart brings the same server state back on the same address, as a
// recovered daemon would.
func (b *e2eBackend) restart() {
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ { // the freed port can lag a moment
		if ln, err = net.Listen("tcp", b.addr); err == nil {
			b.serve(ln)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	b.t.Fatalf("restart %s: %v", b.addr, err)
}

func e2eCluster(t *testing.T, n int, cfg Config) ([]*e2eBackend, *Router) {
	t.Helper()
	backends := make([]*e2eBackend, n)
	urls := make([]string, n)
	for i := range backends {
		backends[i] = startE2EBackend(t)
		urls[i] = backends[i].url()
	}
	cfg.Backends = urls
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return backends, rt
}

func runBody(project string) string {
	b, _ := json.Marshal(map[string]string{"project": project})
	return string(b)
}

func sayProject(i int) string {
	return fmt.Sprintf(`(project "p%d" (sprite "S" (when green-flag (do (say (join "v" (+ %d 1)))))))`, i, i)
}

// postOK posts one run body through h and fails the test on anything but
// 200.
func postOK(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := post(h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/run = %d: %s", rec.Code, rec.Body.String())
	}
	return rec
}

func post(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestE2EFailoverMidTraffic is the acceptance scenario: 3 real backends,
// one killed mid-traffic. Every idempotent-safe request must succeed
// (connect errors retry onto survivors), the ring must eject the dead
// backend and re-admit it after restart, and its keys must come home.
func TestE2EFailoverMidTraffic(t *testing.T) {
	backends, rt := e2eCluster(t, 3, Config{
		VNodes: 64,
		// A long probe interval forces the ejection through the passive
		// path (real traffic hitting connect errors) and still lets the
		// probes re-admit the backend quickly after restart.
		HealthInterval: 100 * time.Millisecond,
		FailThreshold:  2,
		RetryBase:      2 * time.Millisecond,
	})
	h := rt.Handler()

	bodies := make([]string, 8)
	for i := range bodies {
		bodies[i] = runBody(sayProject(i))
	}
	victim := rt.Ring().Prefer(placementKey([]byte(bodies[0])))[0]

	var wg sync.WaitGroup
	var failures sync.Map
	traffic := func(rounds int) {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for _, body := range bodies {
						if rec := post(h, body); rec.Code != http.StatusOK {
							failures.Store(fmt.Sprintf("w%d r%d: %d %s", w, r, rec.Code, rec.Body.String()), true)
						}
					}
				}
			}(w)
		}
	}

	traffic(3)
	wg.Wait()

	// The kill, then immediately more traffic: the first requests for
	// the victim's keys hit connect errors, retry onto survivors, and
	// eject the backend.
	backends[victim].kill()
	traffic(3)
	wg.Wait()

	failures.Range(func(k, _ any) bool {
		t.Errorf("failed request during failover: %s", k)
		return true
	})

	st := rt.Stats()
	if st.Backends[victim].Healthy || st.Backends[victim].Ejections == 0 {
		t.Fatalf("victim %d not ejected: %+v", victim, st.Backends[victim])
	}
	if st.Retries == 0 {
		t.Error("no retries counted though the victim owned live keys")
	}
	if got := rt.Ring().Prefer(placementKey([]byte(bodies[0])))[0]; got == victim {
		t.Errorf("victim's keys still route to it after ejection")
	}

	// Recovery: the probes re-admit the backend and its keys come home,
	// where its caches are still warm.
	backends[victim].restart()
	deadline := time.Now().Add(5 * time.Second)
	for !rt.Stats().Backends[victim].Healthy {
		if time.Now().After(deadline) {
			t.Fatal("victim never re-admitted after restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rt.Stats().Backends[victim].Readmissions == 0 {
		t.Error("re-admission not counted")
	}
	if got := rt.Ring().Prefer(placementKey([]byte(bodies[0])))[0]; got != victim {
		t.Errorf("after re-admission key routes to %d, want %d", got, victim)
	}
	postOK(t, h, bodies[0])
}

// TestE2EKillDuringTraffic kills a backend while four workers keep
// posting, so the kill lands on pooled connections in every state: idle
// in the router's pool, carrying a request the backend has not read yet,
// and mid-run. Shutdown closes the idle ones and lets the running ones
// answer, so every request must still succeed: the ones the victim never
// served replay on a survivor.
func TestE2EKillDuringTraffic(t *testing.T) {
	backends, rt := e2eCluster(t, 3, Config{
		VNodes:         64,
		HealthInterval: 100 * time.Millisecond,
		FailThreshold:  2,
		RetryBase:      2 * time.Millisecond,
	})
	h := rt.Handler()
	bodies := make([]string, 8)
	for i := range bodies {
		bodies[i] = runBody(sayProject(i))
	}
	victim := rt.Ring().Prefer(placementKey([]byte(bodies[0])))[0]

	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		served   atomic.Int64
		failures sync.Map
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if rec := post(h, bodies[(w+i)%len(bodies)]); rec.Code != http.StatusOK {
					failures.Store(fmt.Sprintf("w%d #%d: %d %s", w, i, rec.Code, rec.Body.String()), true)
				}
				served.Add(1)
			}
		}(w)
	}
	for served.Load() < 40 {
		time.Sleep(time.Millisecond)
	}
	backends[victim].kill()
	killedAt := served.Load()
	for served.Load() < killedAt+40 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	failures.Range(func(k, _ any) bool {
		t.Errorf("failed request across the kill: %s", k)
		return true
	})
	if st := rt.Stats(); st.Retries == 0 {
		t.Error("no retries counted though the victim owned live keys")
	}
}

// TestE2ECacheAffinity pins the reason the placement key is the Tier A
// content address: repeated identical bodies hit exactly one shard's
// program cache. 9 distinct bodies × 8 submissions elaborate 9 times
// across the whole cluster — random routing over 3 backends would pay
// roughly one elaboration per (body, backend) pair, ~3× worse.
func TestE2ECacheAffinity(t *testing.T) {
	backends, rt := e2eCluster(t, 3, Config{VNodes: 64})
	h := rt.Handler()

	const distinct, repeats = 9, 8
	for rep := 0; rep < repeats; rep++ {
		for i := 0; i < distinct; i++ {
			postOK(t, h, runBody(sayProject(i)))
		}
	}

	var hits, misses int64
	usedShards := 0
	for _, b := range backends {
		st := b.srv.CacheStats()
		hits += st.Hits
		misses += st.Misses
		if st.Hits+st.Misses > 0 {
			usedShards++
		}
	}
	if misses != distinct {
		t.Errorf("cluster-wide elaborations = %d, want exactly %d (one per distinct body; random routing would pay ~%d)",
			misses, distinct, distinct*len(backends))
	}
	if hits != distinct*(repeats-1) {
		t.Errorf("cluster-wide cache hits = %d, want %d", hits, distinct*(repeats-1))
	}
	if usedShards < 2 {
		t.Errorf("only %d shards saw traffic; 9 bodies should spread across the ring", usedShards)
	}
}

func mrProject(text string) string {
	return fmt.Sprintf(`(project "mr" (sprite "S" (when green-flag (do (say (mapreduce
		(ring (list _ 1))
		(ring (combine _ (ring (+ _ _))))
		(split %q " ")))))))`, text)
}

// normalizeRun strips the fields that legitimately differ between two
// executions of the same program — session identity and timing, where
// timing includes steps and rounds: a process awaiting an async pool
// result re-polls once per scheduler round, so those counts depend on
// worker timing, not on the program. What remains — status, trace,
// stage, scripts — must be identical or routing changed semantics.
func normalizeRun(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decode run response %q: %v", raw, err)
	}
	for _, k := range []string{"id", "queue_ms", "run_ms", "rounds", "steps", "timesteps"} {
		delete(m, k)
	}
	return m
}

// TestE2ERoutingPreservesSemantics is the dist-parity satellite: the same
// mapReduce projects through (a) a single snapserved, (b) the router over
// 3 backends, and (c) internal/dist's simulated cluster must agree.
func TestE2ERoutingPreservesSemantics(t *testing.T) {
	_, rt := e2eCluster(t, 3, Config{VNodes: 64})
	single := startE2EBackend(t)
	direct := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		single.srv.Handler().ServeHTTP(rec, req)
		return rec
	}

	texts := []string{
		"b a b c a",
		"the quick fox the lazy dog the end",
		"x y z x y x",
	}
	for _, text := range texts {
		body := runBody(mrProject(text))
		routed := postOK(t, rt.Handler(), body)
		via := direct(body)
		if via.Code != http.StatusOK {
			t.Fatalf("direct run = %d: %s", via.Code, via.Body.String())
		}
		got, want := normalizeRun(t, routed.Body.Bytes()), normalizeRun(t, via.Body.Bytes())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("text %q: routed result differs from single backend:\nrouted: %v\ndirect: %v", text, got, want)
		}

		// Ground truth from the simulated cluster: the trace line must
		// carry exactly the word counts internal/dist computes.
		in := value.FromStrings(strings.Fields(text))
		distRes, _, err := dist.MapReduce(in, mapreduce.WordCount, mapreduce.SumReduce,
			dist.Config{Nodes: 3, WorkersPerNode: 2})
		if err != nil {
			t.Fatal(err)
		}
		wantLine := fmt.Sprintf("S says %q", distRes.List().String())
		trace, _ := got["trace"].([]any)
		if len(trace) == 0 {
			t.Fatalf("text %q: routed run produced no trace", text)
		}
		if line, _ := trace[len(trace)-1].(string); !strings.Contains(line, wantLine) {
			t.Errorf("text %q: routed trace = %v, want a line containing %q", text, trace, wantLine)
		}
	}

	// Codegen is fully deterministic, so here the routed response must be
	// byte-identical to the single backend's.
	cgScript := `(declare x) (set x 0) (repeat 10 (do (change x 2))) (say $x)`
	cg, _ := json.Marshal(map[string]string{"script": cgScript, "lang": "go"})
	req := httptest.NewRequest("POST", "/v1/codegen", strings.NewReader(string(cg)))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	reqD := httptest.NewRequest("POST", "/v1/codegen", strings.NewReader(string(cg)))
	recD := httptest.NewRecorder()
	single.srv.Handler().ServeHTTP(recD, reqD)
	if rec.Code != http.StatusOK || recD.Code != http.StatusOK {
		t.Fatalf("codegen = %d routed, %d direct", rec.Code, recD.Code)
	}
	if rec.Body.String() != recD.Body.String() {
		t.Errorf("routed codegen differs from direct:\n%s\nvs\n%s", rec.Body.String(), recD.Body.String())
	}
}

// TestE2EDrainingBackendIsEjected covers the graceful-shutdown handshake:
// a backend whose /healthz says draining (503) leaves the ring before it
// goes away, comes back when it stops draining, and never breaks traffic.
func TestE2EDrainingBackendIsEjected(t *testing.T) {
	backends, rt := e2eCluster(t, 2, Config{
		VNodes:         64,
		HealthInterval: 15 * time.Millisecond,
		FailThreshold:  2,
	})
	h := rt.Handler()
	body := runBody(sayProject(0))
	postOK(t, h, body)

	victim := rt.Ring().Prefer(placementKey([]byte(body)))[0]
	backends[victim].srv.SetDraining(true)

	// The backend itself now advertises draining.
	resp, err := http.Get(backends[victim].url() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "draining" {
		t.Fatalf("draining healthz = %d %+v, want 503 draining", resp.StatusCode, hz)
	}

	deadline := time.Now().Add(3 * time.Second)
	for rt.Stats().Backends[victim].Healthy {
		if time.Now().After(deadline) {
			t.Fatal("draining backend never ejected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Traffic continues on the survivor; the drained backend sees none
	// of it even though it would still answer.
	before := rt.Stats().Backends[victim].Requests
	for i := 0; i < 5; i++ {
		postOK(t, h, body)
	}
	if after := rt.Stats().Backends[victim].Requests; after != before {
		t.Errorf("drained backend served %d forwarded requests", after-before)
	}

	backends[victim].srv.SetDraining(false)
	deadline = time.Now().Add(3 * time.Second)
	for !rt.Stats().Backends[victim].Healthy {
		if time.Now().After(deadline) {
			t.Fatal("recovered backend never re-admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	postOK(t, h, body)
}

// TestE2ERequestIDCorrelatesSpans covers the request-ID satellite end to
// end: the ID stamped at the router becomes the backend session's trace
// ID, so the engine job spans of the run are addressable by the
// distributed request ID, and the routed session lookup still returns
// them.
func TestE2ERequestIDCorrelatesSpans(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.ResetSpans()

	_, rt := e2eCluster(t, 2, Config{VNodes: 64})
	project := `(project "spans" (sprite "S" (when green-flag (do (report (parallelmap (lambda (x) (* $x 2)) (numbers 1 32) 4))))))`
	req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(runBody(project)))
	req.Header.Set("X-Request-ID", "req-e2e-77")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("run = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-ID"); got != "req-e2e-77" {
		t.Errorf("router echoed X-Request-ID %q", got)
	}
	var run struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &run); err != nil {
		t.Fatal(err)
	}

	spans := obs.SpansFor("req-e2e-77")
	var kinds []string
	for _, sp := range spans {
		kinds = append(kinds, sp.Kind)
	}
	if len(spans) < 2 {
		t.Fatalf("spans under the request ID = %v, want a session span plus its job spans", kinds)
	}
	hasSession := false
	for _, k := range kinds {
		if k == "session" {
			hasSession = true
		}
	}
	if !hasSession {
		t.Errorf("no session span under the request ID: %v", kinds)
	}

	// The routed session lookup reaches the owning backend and reports
	// the same spans.
	get := httptest.NewRequest("GET", "/v1/sessions/"+run.ID, nil)
	grec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(grec, get)
	if grec.Code != http.StatusOK {
		t.Fatalf("session lookup = %d: %s", grec.Code, grec.Body.String())
	}
	var sess struct {
		Spans []struct {
			Kind string `json:"kind"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(grec.Body.Bytes(), &sess); err != nil {
		t.Fatal(err)
	}
	if len(sess.Spans) < 2 {
		t.Errorf("routed session response carries %d spans, want the correlated set", len(sess.Spans))
	}
}
