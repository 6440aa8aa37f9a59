package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/progcache"
	"repro/internal/runtime"
)

// enableObs flips engine observability on for one test and restores the
// prior state (plus a clean span window) afterwards. The process-wide
// ring cache is emptied too: a ring cached by an earlier (unmetered) test
// would otherwise skip compile.Ring here and starve the compile counters
// this file asserts on.
func enableObs(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	obs.ResetSpans()
	progcache.DefaultRings.Reset()
	t.Cleanup(func() { obs.SetEnabled(prev); obs.ResetSpans() })
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, body := getJSON(t, url+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	return string(body)
}

// seriesValue finds a series by exact name{labels} prefix and returns its
// value; -1 when absent.
func seriesValue(scrape, series string) float64 {
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// TestMetricsExposeEngineSeries is the tentpole's end-to-end proof: run a
// project whose green-flag script fans out through parallelMap, then
// scrape /metrics and find the engine-side evidence — the pool job, the
// compile-tier decision, and the governed session — merged into the same
// exposition as the snapserved_* serving metrics.
func TestMetricsExposeEngineSeries(t *testing.T) {
	enableObs(t)
	ts := newTestServer(t, Config{})

	jobsBefore := seriesValue(scrape(t, ts.URL), `engine_pool_jobs_total{op="map"}`)
	sessionsBefore := seriesValue(scrape(t, ts.URL), `engine_sessions_total`)

	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: parallelSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d, body %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != runtime.StatusOK {
		t.Fatalf("session status = %s (%s)", rr.Status, rr.Error)
	}

	out := scrape(t, ts.URL)
	if !strings.Contains(out, "snapserved_requests_total") {
		t.Errorf("serving metrics missing from merged scrape")
	}
	if got := seriesValue(out, `engine_pool_jobs_total{op="map"}`); got < jobsBefore+1 {
		t.Errorf("engine_pool_jobs_total{op=map} = %g, want > %g after a parallelMap run", got, jobsBefore)
	}
	if got := seriesValue(out, `engine_sessions_total`); got < sessionsBefore+1 {
		t.Errorf("engine_sessions_total = %g, want > %g", got, sessionsBefore)
	}
	if got := seriesValue(out, `engine_compile_hits_total`); got < 1 {
		t.Errorf("engine_compile_hits_total = %g, want >= 1 (the lambda compiles)", got)
	}
	if !strings.Contains(out, "engine_pool_chunk_seconds_bucket") {
		t.Errorf("chunk duration histogram missing from scrape")
	}
}

// promLine matches one Prometheus text-format sample:
// name{labels} value — value integer, float, or %g scientific notation.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$`)

// TestMetricsLineFormat walks every line of a post-traffic scrape and
// holds it to the exposition grammar: only HELP/TYPE comments and
// well-formed samples, each sample name under a known prefix, no
// duplicate (name, labels) pair.
func TestMetricsLineFormat(t *testing.T) {
	enableObs(t)
	ts := newTestServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: parallelSrc}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d, body %s", resp.StatusCode, body)
	}

	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(scrape(t, ts.URL)))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		lines++
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name, _, _ := strings.Cut(series, "{")
		if !strings.HasPrefix(name, "snapserved_") && !strings.HasPrefix(name, "engine_") {
			t.Errorf("series %q outside known prefixes", name)
		}
		if seen[series] {
			t.Errorf("duplicate series %q", series)
		}
		seen[series] = true
	}
	if lines == 0 {
		t.Fatal("empty scrape")
	}
}

// TestMetricsScrapeStable pins rendering determinism end to end: with no
// traffic between them, two scrapes must be byte-identical — the /metrics
// route is deliberately uninstrumented, and every layer of the render
// sorts its keys. Any nondeterministic map iteration would flake here.
func TestMetricsScrapeStable(t *testing.T) {
	enableObs(t)
	ts := newTestServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: parallelSrc}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d, body %s", resp.StatusCode, body)
	}
	first := scrape(t, ts.URL)
	for i := 0; i < 10; i++ {
		if again := scrape(t, ts.URL); again != first {
			t.Fatalf("scrape %d differs from first:\n--- first\n%s\n--- again\n%s", i, first, again)
		}
	}
}

// TestSessionResponseCarriesSpans: GET /v1/sessions/{id} on a finished
// parallelMap session reports the session span and the worker-job span it
// launched, correlated by the session ID.
func TestSessionResponseCarriesSpans(t *testing.T) {
	enableObs(t)
	ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: parallelSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d, body %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}

	resp, body = getJSON(t, ts.URL+"/v1/sessions/"+rr.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session: status %d, body %s", resp.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, sp := range sr.Spans {
		kinds[sp.Kind] = true
		if sp.DurationMS < 0 {
			t.Errorf("span %s: negative duration %g", sp.Kind, sp.DurationMS)
		}
	}
	if !kinds["session"] || !kinds["parallel.map"] {
		t.Fatalf("session spans = %+v, want both a session and a parallel.map span", sr.Spans)
	}
}

// TestPprofGatedByConfig: the profiling endpoints exist exactly when the
// config asks for them.
func TestPprofGatedByConfig(t *testing.T) {
	off := newTestServer(t, Config{})
	if resp, _ := getJSON(t, off.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: /debug/pprof/cmdline status %d, want 404", resp.StatusCode)
	}
	on := newTestServer(t, Config{EnablePprof: true})
	if resp, _ := getJSON(t, on.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: /debug/pprof/cmdline status %d, want 200", resp.StatusCode)
	}
}

// TestServedSessionsRunOnTheBytecodeMachine pins that the daemon links the
// bytecode machine: nothing in this package imports internal/vm, so only
// the serving path's own dependencies install its spawn hook, and a
// served counting loop must still execute VM ops.
func TestServedSessionsRunOnTheBytecodeMachine(t *testing.T) {
	enableObs(t)
	ts := newTestServer(t, Config{})
	before := obs.VMOps.Value()
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: `
		(project "counting" (sprite "S" (local x 0)
		  (when green-flag (do (repeat 50 (do (change x 1))) (say $x)))))`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d, body %s", resp.StatusCode, body)
	}
	if obs.VMOps.Value() == before {
		t.Fatal("a served loop executed no bytecode ops: the VM is not linked into the serving path")
	}
}
