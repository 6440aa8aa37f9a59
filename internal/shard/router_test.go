package shard

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// stubBackend is a scripted backend: a mux with /healthz always-200 plus
// whatever routes a test wires in, counting requests per path.
type stubBackend struct {
	mux *http.ServeMux
	ts  *httptest.Server

	mu   sync.Mutex
	hits map[string]int
}

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	sb := &stubBackend{mux: http.NewServeMux(), hits: map[string]int{}}
	sb.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	sb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sb.mu.Lock()
		sb.hits[r.URL.Path]++
		sb.mu.Unlock()
		sb.mux.ServeHTTP(w, r)
	}))
	t.Cleanup(sb.ts.Close)
	return sb
}

func (sb *stubBackend) hitCount(path string) int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.hits[path]
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postRun(t *testing.T, h http.Handler, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRetryAfterPropagation: a backend's own 429 — admission control on
// one shard — must reach the client with its Retry-After hint intact.
func TestRetryAfterPropagation(t *testing.T) {
	sb := newStubBackend(t)
	sb.mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"overloaded"}`)
	})
	rt := newTestRouter(t, Config{Backends: []string{sb.ts.URL}})
	rec := postRun(t, rt.Handler(), `{"project":"(x)"}`, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want the backend's own \"7\"", got)
	}
}

// TestFaultStatusPropagation: a 500 fault response replays byte-identical
// through the router — the router reports backend failures, it does not
// reinterpret them.
func TestFaultStatusPropagation(t *testing.T) {
	const faultBody = `{"id":"s-f","status":"fault","error":"recovered panic"}`
	sb := newStubBackend(t)
	sb.mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, faultBody)
	})
	rt := newTestRouter(t, Config{Backends: []string{sb.ts.URL}})
	rec := postRun(t, rt.Handler(), `{"project":"(x)"}`, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if rec.Body.String() != faultBody {
		t.Errorf("body = %q, want the backend's bytes %q", rec.Body.String(), faultBody)
	}
}

func TestRequestIDMintedAndForwarded(t *testing.T) {
	var gotID string
	var mu sync.Mutex
	sb := newStubBackend(t)
	sb.mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gotID = r.Header.Get("X-Request-ID")
		mu.Unlock()
		fmt.Fprint(w, `{"id":"s-1","status":"ok"}`)
	})
	rt := newTestRouter(t, Config{Backends: []string{sb.ts.URL}})

	// Client-supplied ID is forwarded verbatim and echoed.
	rec := postRun(t, rt.Handler(), `{"project":"(x)"}`, map[string]string{"X-Request-ID": "req-42"})
	mu.Lock()
	forwarded := gotID
	mu.Unlock()
	if forwarded != "req-42" {
		t.Errorf("backend saw X-Request-ID %q, want req-42", forwarded)
	}
	if rec.Header().Get("X-Request-ID") != "req-42" {
		t.Errorf("router echoed %q, want req-42", rec.Header().Get("X-Request-ID"))
	}

	// Absent ID: the router mints one and both sides see the same value.
	rec = postRun(t, rt.Handler(), `{"project":"(x)"}`, nil)
	mu.Lock()
	forwarded = gotID
	mu.Unlock()
	if forwarded == "" || !strings.HasPrefix(forwarded, "r-") {
		t.Errorf("minted request ID %q, want r-<hex>", forwarded)
	}
	if rec.Header().Get("X-Request-ID") != forwarded {
		t.Errorf("echoed %q but forwarded %q", rec.Header().Get("X-Request-ID"), forwarded)
	}
}

// TestConnectErrorFailsOver: a dead backend (nothing listening) yields
// dial errors, which are the retryable class — the request must succeed
// on the survivor and the passive reports must eject the dead slot.
func TestConnectErrorFailsOver(t *testing.T) {
	sb := newStubBackend(t)
	sb.mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"s-1","status":"ok"}`)
	})
	// A port with nothing behind it: listen, note the address, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	rt := newTestRouter(t, Config{
		Backends:      []string{deadURL, sb.ts.URL},
		FailThreshold: 2,
		// Slow probes so the test exercises the passive path: the dead
		// backend stays in the ring until forwarding errors eject it.
		HealthInterval: time.Hour,
	})
	failedOver := false
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"project":"(p%d)"}`, i)
		rec := postRun(t, rt.Handler(), body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, rec.Code, rec.Body.String())
		}
		if prefs := rt.Ring().Prefer(placementKey([]byte(body))); len(prefs) > 0 && prefs[0] == 0 {
			failedOver = true
		}
	}
	st := rt.Stats()
	if !failedOver && st.Retries == 0 {
		t.Skip("no request hashed onto the dead backend; nothing to assert")
	}
	if st.Retries == 0 {
		t.Error("requests routed to the dead backend but no retry was counted")
	}
	if st.Backends[0].Healthy || st.Backends[0].Ejections == 0 {
		t.Errorf("dead backend not ejected: %+v", st.Backends[0])
	}
	if rt.Ring().Contains(0) {
		t.Error("ejected backend still a ring member")
	}
}

// TestNoReplayAfterBytesForwarded: a backend that dies mid-response is
// NOT retried on a POST — the run may already be executing, and a replay
// would double it. The client gets an honest 502.
func TestNoReplayAfterBytesForwarded(t *testing.T) {
	sb := newStubBackend(t)
	sb.mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler) // kill the connection mid-request
	})
	spare := newStubBackend(t)
	spare.mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"s-1","status":"ok"}`)
	})
	rt := newTestRouter(t, Config{
		Backends:       []string{sb.ts.URL, spare.ts.URL},
		HealthInterval: time.Hour,
	})
	// Find a body the aborting backend owns, then submit it.
	var body string
	for i := 0; ; i++ {
		body = fmt.Sprintf(`{"project":"(p%d)"}`, i)
		if rt.Ring().Prefer(placementKey([]byte(body)))[0] == 0 {
			break
		}
	}
	rec := postRun(t, rt.Handler(), body, nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502 (no replay)", rec.Code)
	}
	if n := spare.hitCount("/v1/run"); n != 0 {
		t.Errorf("request was replayed onto the spare backend %d times", n)
	}
	if st := rt.Stats(); st.Retries != 0 {
		t.Errorf("retries = %d, want 0 after a mid-request failure", st.Retries)
	}
}

// TestClusterAdmission: the router's own in-flight budget rejects with
// 429 + a derived Retry-After when every slot is taken.
func TestClusterAdmission(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	sb := newStubBackend(t)
	sb.mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		fmt.Fprint(w, `{"id":"s-1","status":"ok"}`)
	})
	rt := newTestRouter(t, Config{Backends: []string{sb.ts.URL}, MaxInflight: 1})

	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- postRun(t, rt.Handler(), `{"project":"(slow)"}`, nil) }()
	<-started // the single slot is now held

	rec := postRun(t, rt.Handler(), `{"project":"(rejected)"}`, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 from cluster admission", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without a Retry-After hint")
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Errorf("429 body %q is not the standard error shape", rec.Body.String())
	}
	close(release)
	if first := <-done; first.Code != http.StatusOK {
		t.Fatalf("slot-holding request failed: %d", first.Code)
	}
	if st := rt.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

// TestSessionRoutesToOwningBackend: the session→shard mapping stamped at
// submit time routes GET /v1/sessions/{id} to the backend that ran it,
// and unknown sessions 404 at the router.
func TestSessionRoutesToOwningBackend(t *testing.T) {
	backends := make([]*stubBackend, 3)
	for i := range backends {
		i := i
		backends[i] = newStubBackend(t)
		backends[i].mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"id":"s-backend%d","status":"ok"}`, i)
		})
		backends[i].mux.HandleFunc("GET /v1/sessions/", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"id":%q,"state":"done"}`, strings.TrimPrefix(r.URL.Path, "/v1/sessions/"))
		})
	}
	rt := newTestRouter(t, Config{
		Backends: []string{backends[0].ts.URL, backends[1].ts.URL, backends[2].ts.URL},
	})
	rec := postRun(t, rt.Handler(), `{"project":"(whoami)"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("run failed: %d", rec.Code)
	}
	var run struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &run); err != nil {
		t.Fatal(err)
	}
	owner := int(run.ID[len(run.ID)-1] - '0')

	req := httptest.NewRequest("GET", "/v1/sessions/"+run.ID, nil)
	get := httptest.NewRecorder()
	rt.Handler().ServeHTTP(get, req)
	if get.Code != http.StatusOK {
		t.Fatalf("session lookup: %d", get.Code)
	}
	if n := backends[owner].hitCount("/v1/sessions/" + run.ID); n != 1 {
		t.Errorf("owning backend %d saw %d session lookups, want 1", owner, n)
	}
	for i, sb := range backends {
		if i != owner && sb.hitCount("/v1/sessions/"+run.ID) != 0 {
			t.Errorf("non-owning backend %d was asked for the session", i)
		}
	}

	req = httptest.NewRequest("GET", "/v1/sessions/s-nowhere", nil)
	get = httptest.NewRecorder()
	rt.Handler().ServeHTTP(get, req)
	if get.Code != http.StatusNotFound {
		t.Errorf("unknown session = %d, want 404", get.Code)
	}
}

// TestRouterHealthz reports degraded/down as backends disappear.
func TestRouterHealthz(t *testing.T) {
	sb := newStubBackend(t)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	rt := newTestRouter(t, Config{
		Backends:       []string{sb.ts.URL, deadURL},
		HealthInterval: 10 * time.Millisecond,
		FailThreshold:  2,
	})
	deadline := time.Now().Add(3 * time.Second)
	for rt.Stats().Backends[1].Healthy {
		if time.Now().After(deadline) {
			t.Fatal("dead backend never ejected by active probes")
		}
		time.Sleep(10 * time.Millisecond)
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 while one backend survives", rec.Code)
	}
	var hz struct {
		Status string `json:"status"`
		Live   int    `json:"live"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.Live != 1 {
		t.Errorf("healthz = %+v, want degraded with 1 live", hz)
	}
}

// TestPlacementKeyMatchesTierA: two bodies with the same program source
// share a key regardless of other envelope fields, and format
// distinguishes otherwise-identical sources — mirroring the Tier A
// contract the per-shard caches key on.
func TestPlacementKeyMatchesTierA(t *testing.T) {
	a := placementKey([]byte(`{"project":"(p)","timeout_ms":100}`))
	b := placementKey([]byte(`{"project":"(p)","max_steps":5}`))
	if a != b {
		t.Error("same program, different envelope: keys differ, cache affinity is lost")
	}
	c := placementKey([]byte(`{"project":"(p)","format":"xml"}`))
	if a == c {
		t.Error("same bytes under different formats must not share a key")
	}
	d := placementKey([]byte(`not json at all`))
	if d != placementKey([]byte(`not json at all`)) {
		t.Error("undecodable bodies must still key deterministically")
	}
}

// rawBackend is a backend written against raw TCP, so a test controls
// exactly when a pooled connection closes and how many bytes of an
// answer leave first. Every connection answers its first request with a
// keep-alive 200; the second request on it goes to second.
type rawBackend struct {
	ln     net.Listener
	second func(conn net.Conn, br *bufio.Reader)
	wg     sync.WaitGroup
}

func newRawBackend(t *testing.T, second func(conn net.Conn, br *bufio.Reader)) *rawBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rb := &rawBackend{ln: ln, second: second}
	rb.wg.Add(1)
	go func() {
		defer rb.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			rb.wg.Add(1)
			go func() {
				defer rb.wg.Done()
				rb.serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		rb.wg.Wait()
	})
	return rb
}

func (rb *rawBackend) url() string { return "http://" + rb.ln.Addr().String() }

func (rb *rawBackend) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	req, err := http.ReadRequest(br)
	if err != nil {
		return
	}
	io.Copy(io.Discard, req.Body) //nolint:errcheck
	const ok = `{"id":"s-raw","status":"ok"}`
	fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(ok), ok)
	if _, err := br.Peek(1); err != nil { // the next request's first bytes
		return
	}
	rb.second(conn, br)
}

// rawRouter puts the raw backend in slot 0 and a normal spare in slot 1,
// warms one pooled connection to the raw backend, and returns a body the
// raw backend owns.
func rawRouter(t *testing.T, rb *rawBackend) (*Router, *stubBackend, string) {
	t.Helper()
	spare := newStubBackend(t)
	spare.mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"s-spare","status":"ok"}`)
	})
	rt := newTestRouter(t, Config{
		Backends:       []string{rb.url(), spare.ts.URL},
		HealthInterval: time.Hour, // probes would open connections of their own
	})
	var body string
	for i := 0; ; i++ {
		body = fmt.Sprintf(`{"project":"(p%d)"}`, i)
		if rt.Ring().Prefer(placementKey([]byte(body)))[0] == 0 {
			break
		}
	}
	if rec := postRun(t, rt.Handler(), body, nil); rec.Code != http.StatusOK {
		t.Fatalf("warm-up forward: %d %s", rec.Code, rec.Body.String())
	}
	return rt, spare, body
}

// TestIdleCloseBeforeReadFailsOver: a backend that closes a pooled
// connection without reading the request written on it never served
// that request, so the router replays it on the next ring preference.
func TestIdleCloseBeforeReadFailsOver(t *testing.T) {
	rb := newRawBackend(t, func(net.Conn, *bufio.Reader) {})
	rt, spare, body := rawRouter(t, rb)
	rec := postRun(t, rt.Handler(), body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200 from the spare", rec.Code, rec.Body.String())
	}
	if n := spare.hitCount("/v1/run"); n != 1 {
		t.Errorf("spare served %d requests, want 1", n)
	}
	if st := rt.Stats(); st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
}

// TestIdleCloseAfterPartialAnswerIs502: once any byte of an answer came
// back the backend served the request, so a connection that then dies
// gets an honest 502 and no replay.
func TestIdleCloseAfterPartialAnswerIs502(t *testing.T) {
	rb := newRawBackend(t, func(conn net.Conn, br *bufio.Reader) {
		if req, err := http.ReadRequest(br); err == nil {
			io.Copy(io.Discard, req.Body) //nolint:errcheck
		}
		io.WriteString(conn, "HTTP/1.1 200 OK\r\n") //nolint:errcheck
	})
	rt, spare, body := rawRouter(t, rb)
	rec := postRun(t, rt.Handler(), body, nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d (%s), want 502", rec.Code, rec.Body.String())
	}
	if n := spare.hitCount("/v1/run"); n != 0 {
		t.Errorf("request was replayed onto the spare %d times", n)
	}
	if st := rt.Stats(); st.Retries != 0 {
		t.Errorf("retries = %d, want 0", st.Retries)
	}
}

// TestFreshResetBeforeReadFailsOver: a backend that resets a fresh
// connection before reading the request on it — as Linux does to a dial
// still waiting in the accept backlog of a listener that closes — never
// served that request, so the router replays it on the next ring
// preference.
func TestFreshResetBeforeReadFailsOver(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conn.(*net.TCPConn).SetLinger(0) //nolint:errcheck // the close below resets either way on loopback
			conn.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	spare := newStubBackend(t)
	spare.mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"s-spare","status":"ok"}`)
	})
	rt := newTestRouter(t, Config{
		Backends:       []string{"http://" + ln.Addr().String(), spare.ts.URL},
		HealthInterval: time.Hour,
	})
	var body string
	for i := 0; ; i++ {
		body = fmt.Sprintf(`{"project":"(p%d)"}`, i)
		if rt.Ring().Prefer(placementKey([]byte(body)))[0] == 0 {
			break
		}
	}
	rec := postRun(t, rt.Handler(), body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200 from the spare", rec.Code, rec.Body.String())
	}
	if n := spare.hitCount("/v1/run"); n != 1 {
		t.Errorf("spare served %d requests, want 1", n)
	}
	if n := accepts.Load(); n < 1 {
		t.Errorf("the resetting backend accepted %d connections, want the forward's", n)
	}
	if st := rt.Stats(); st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
}

// TestUnsentPredicate pins the retry rule case by case, including the
// orders of events a loopback backend cannot be made to produce on cue
// (a reset after a response byte reads as an unexpected EOF there).
func TestUnsentPredicate(t *testing.T) {
	reset := &net.OpError{Op: "read", Err: syscall.ECONNRESET}
	for _, c := range []struct {
		name                   string
		reused, wrote, gotByte bool
		err                    error
		want                   bool
	}{
		{"dial error", false, false, false, &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true},
		{"fresh conn, EOF after headers", false, true, false, io.EOF, false},
		{"fresh conn, reset after headers", false, true, false, reset, true},
		{"fresh conn, reset after a response byte", false, true, true, reset, false},
		{"reused conn, EOF after headers", true, true, false, io.EOF, true},
		{"reused conn, reset after headers", true, true, false, reset, true},
		{"reused conn, reset after a response byte", true, true, true, reset, false},
		{"reused conn, EOF after a response byte", true, true, true, io.EOF, false},
		{"reused conn, other error after headers", true, true, false, errors.New("deadline"), false},
	} {
		var at attemptTrace
		at.reused.Store(c.reused)
		at.wroteHeaders.Store(c.wrote)
		at.gotByte.Store(c.gotByte)
		if got := at.unsent(c.err); got != c.want {
			t.Errorf("%s: unsent = %v, want %v", c.name, got, c.want)
		}
	}
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (cl *countingListener) Accept() (net.Conn, error) {
	c, err := cl.Listener.Accept()
	if err == nil {
		cl.accepts.Add(1)
	}
	return c, err
}

// TestForwardsReusePooledConnection pins the default client's pooling:
// sequential forwards to one backend share one connection.
func TestForwardsReusePooledConnection(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"s-1","status":"ok"}`)
	}))
	cl := &countingListener{Listener: ts.Listener}
	ts.Listener = cl
	ts.Start()
	t.Cleanup(ts.Close)
	rt := newTestRouter(t, Config{Backends: []string{ts.URL}, HealthInterval: time.Hour})
	for i := 0; i < 20; i++ {
		if rec := postRun(t, rt.Handler(), fmt.Sprintf(`{"project":"(p%d)"}`, i), nil); rec.Code != http.StatusOK {
			t.Fatalf("forward %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if n := cl.accepts.Load(); n != 1 {
		t.Errorf("20 sequential forwards opened %d connections, want 1", n)
	}
}
