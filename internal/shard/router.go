package shard

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mathrand "math/rand"
	"net/http"
	"net/http/httptrace"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/progcache"
)

// Config parameterizes a Router.
type Config struct {
	// Backends are the snapserved base URLs (e.g. http://10.0.0.1:8080),
	// in slot order — the order is the identity the per-backend metrics
	// and the ring's vnode positions key on, so keep it stable across
	// router restarts.
	Backends []string
	// VNodes is the virtual-node count per backend (default 64).
	VNodes int
	// MaxInflight is the cluster-wide in-flight request budget
	// (default 256).
	MaxInflight int
	// MaxBodyBytes caps request bodies (default 1 MiB, matching
	// snapserved).
	MaxBodyBytes int64
	// HealthInterval is the active /healthz probe period (default 500ms).
	HealthInterval time.Duration
	// FailThreshold is how many consecutive failures eject a backend
	// (default 2).
	FailThreshold int
	// MaxRetries bounds additional forward attempts after an attempt
	// the backend never served (default 3).
	MaxRetries int
	// RetryBase is the first backoff step; attempt k sleeps
	// RetryBase<<k plus up to 50% jitter (default 25ms).
	RetryBase time.Duration
	// SessionMemory bounds the session-ID→backend map (default 4096).
	SessionMemory int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Client, when set, forwards through this HTTP client instead of the
	// router's own keep-alive connections (up to MaxInflight idle ones per
	// backend, driven on the handler goroutine; see forward.go). Either
	// way no global timeout applies: per-request contexts govern, since a
	// governed session may legitimately run for its full wall-clock
	// budget.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.SessionMemory <= 0 {
		c.SessionMemory = 4096
	}
	return c
}

// BackendStats is one backend's slice of a Stats snapshot.
type BackendStats struct {
	URL          string
	Healthy      bool
	Requests     int64
	Ejections    int64
	Readmissions int64
}

// Stats is the router's always-on counter snapshot (the obs engine_shard_*
// series mirror it while instrumentation is enabled).
type Stats struct {
	Backends     []BackendStats
	Retries      int64
	Rejected     int64
	RingRebuilds int64
	Inflight     int64
	Sessions     int
}

// Router fronts N snapserved backends with consistent-hash placement,
// health-checked failover, bounded retry, and cluster-wide admission.
type Router struct {
	cfg    Config
	ring   *Ring
	health *healthTracker
	adm    *admitter
	client *http.Client // nil: forward through pools
	pools  []*connPool  // one per backend slot
	mux    *http.ServeMux

	requests []atomic.Int64
	retries  atomic.Int64

	jitterMu sync.Mutex
	jitter   *mathrand.Rand

	mu       sync.Mutex
	sessions map[string]int // session ID -> backend slot
	sessIDs  []string       // insertion order, for bounded eviction
}

// New builds a router over the configured backends and starts its health
// probes. Callers must Close it to stop them. Forwards reuse pooled
// keep-alive connections; the retry rule does not depend on dialing
// afresh, because each attempt records whether the backend was ever
// served (see unsent).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("shard: no backends configured")
	}
	backends := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			return nil, fmt.Errorf("shard: empty backend URL at slot %d", i)
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		backends[i] = b
	}
	cfg.Backends = backends

	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(len(backends), cfg.VNodes),
		adm:      newAdmitter(cfg.MaxInflight),
		client:   cfg.Client,
		mux:      http.NewServeMux(),
		requests: make([]atomic.Int64, len(backends)),
		jitter:   mathrand.New(mathrand.NewSource(time.Now().UnixNano())),
		sessions: map[string]int{},
	}
	if rt.client == nil {
		// Every admitted request may be in flight to one backend at
		// once, so MaxInflight idle connections per backend is enough
		// for a burst to find them all again on the way back.
		for _, b := range backends {
			p, err := newConnPool(b, cfg.MaxInflight)
			if err != nil {
				return nil, fmt.Errorf("shard: %w", err)
			}
			rt.pools = append(rt.pools, p)
		}
	}
	rt.health = newHealthTracker(rt.ring, backends, cfg.HealthInterval, cfg.FailThreshold)
	rt.health.start()

	rt.mux.HandleFunc("POST /v1/run", rt.handleRun)
	rt.mux.HandleFunc("POST /v1/codegen", rt.handleCodegen)
	rt.mux.HandleFunc("GET /v1/sessions/{id}", rt.handleSession)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	if cfg.EnablePprof {
		rt.mux.HandleFunc("/debug/pprof/", pprof.Index)
		rt.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		rt.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		rt.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		rt.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return rt, nil
}

// Handler returns the routed HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health probes and closes the idle pooled connections.
func (rt *Router) Close() {
	rt.health.close()
	for _, p := range rt.pools {
		p.close()
	}
}

// Ring exposes the hash ring (tests and the smoke mode).
func (rt *Router) Ring() *Ring { return rt.ring }

// Stats snapshots the router's counters.
func (rt *Router) Stats() Stats {
	healthy, ej, re := rt.health.snapshot()
	st := Stats{
		Retries:      rt.retries.Load(),
		Rejected:     rt.adm.rejected.Load(),
		RingRebuilds: rt.ring.Rebuilds(),
		Inflight:     rt.adm.inflight.Load(),
	}
	for i, url := range rt.cfg.Backends {
		st.Backends = append(st.Backends, BackendStats{
			URL:          url,
			Healthy:      healthy[i],
			Requests:     rt.requests[i].Load(),
			Ejections:    ej[i],
			Readmissions: re[i],
		})
	}
	rt.mu.Lock()
	st.Sessions = len(rt.sessions)
	rt.mu.Unlock()
	return st
}

// errorBody mirrors snapserved's error shape, so clients see one JSON
// dialect no matter which layer answered.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(errorBody{Error: fmt.Sprintf(format, args...)}) //nolint:errcheck
}

// requestID returns the client's X-Request-ID or mints one. The ID rides
// the forwarded request, comes back on the response, and becomes the
// backend session's trace ID — one identifier from client through router
// through engine job spans. ok is false, and the request answered, when
// the client's ID cannot be sent as a header value.
func requestID(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic("shard: no entropy for request IDs: " + err.Error())
		}
		id = "r-" + hex.EncodeToString(b[:])
	} else if !validHeaderValue(id) {
		writeError(w, http.StatusBadRequest, "invalid X-Request-ID header")
		return "", false
	}
	w.Header().Set("X-Request-ID", id)
	return id, true
}

// readBody drains the (capped) request body, answering 413 on overflow.
// ok is false when the request was already answered.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	body, err := readAll(r.Body, r.ContentLength)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "read request: %v", err)
		}
		return nil, false
	}
	return body, true
}

// placementKey computes the consistent-hash key for a request body: the
// program cache's Tier A key, computed by the same scan and key function
// as the backend's, so a request routes to the shard whose caches
// already hold that program. The router decodes no JSON: the key covers
// the raw program token, and a body the scanner refuses keys on its own
// bytes, as it does on the backend.
func placementKey(body []byte) string { return progcache.RequestKey(body) }

// attemptTrace watches one forward's connection through httptrace and
// decides whether the backend was never served. Its callbacks run on the
// transport's goroutines, so the state is atomic.
type attemptTrace struct {
	reused       atomic.Bool // the connection already carried an exchange
	wroteHeaders atomic.Bool
	gotByte      atomic.Bool // any byte of a response arrived
}

func (at *attemptTrace) clientTrace() *httptrace.ClientTrace {
	return &httptrace.ClientTrace{
		// The transport redoes a request it wrote nothing of on another
		// connection, so each connection it asks for starts the record
		// over — including a dial that then fails and never gets one.
		GetConn: func(string) {
			at.reused.Store(false)
			at.wroteHeaders.Store(false)
			at.gotByte.Store(false)
		},
		// Reused alone, not WasIdle: a connection the transport hands
		// straight from a finished exchange to a waiting request has
		// WasIdle false, yet the backend sees it idle just the same.
		GotConn:              func(info httptrace.GotConnInfo) { at.reused.Store(info.Reused) },
		WroteHeaders:         func() { at.wroteHeaders.Store(true) },
		GotFirstResponseByte: func() { at.gotByte.Store(true) },
	}
}

// unsent applies the retry rule to what the trace saw.
func (at *attemptTrace) unsent(err error) bool {
	return unsent(at.reused.Load(), at.wroteHeaders.Load(), at.gotByte.Load(), err)
}

// unsent reports whether a failed attempt provably never reached a
// handler on the backend — the only failure a non-idempotent request
// may replay elsewhere. Three cases qualify, all before any response
// byte (gotByte):
//   - the request's headers never left (wrote; dial errors included);
//   - they went out on a reused keep-alive connection and the peer hung
//     up without answering. A Go http.Server closes a connection it is
//     serving only after answering, so that hang-up is the backend
//     closing an idle connection it never read from, or its process
//     exiting with the run dying with it;
//   - the peer reset the connection. A connection closed with the
//     request still unread in its receive buffer resets, as does a dial
//     still waiting in the accept backlog of a listener that closes. A
//     handler that read the request and aborted closes cleanly instead,
//     so on a fresh connection an end of stream is not unsent.
func unsent(reused, wrote, gotByte bool, err error) bool {
	if gotByte {
		return false
	}
	return !wrote || peerReset(err) || reused && peerHungUp(err)
}

// peerReset reports a connection the backend reset, which a write meets
// as EPIPE.
func peerReset(err error) bool {
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// peerHungUp reports the errors a connection ends with when the backend
// closed it: end of stream, or a reset. "server closed idle connection"
// is the transport's own name for an end of stream on a pooled
// connection; it is not exported.
func peerHungUp(err error) bool {
	return errors.Is(err, io.EOF) || peerReset(err) ||
		strings.Contains(err.Error(), "server closed idle connection")
}

// backoff sleeps the k-th retry delay (RetryBase<<k plus up to 50%
// jitter), or returns early when the client gives up.
func (rt *Router) backoff(ctx context.Context, attempt int) {
	d := rt.cfg.RetryBase << attempt
	rt.jitterMu.Lock()
	d += time.Duration(rt.jitter.Int63n(int64(d)/2 + 1))
	rt.jitterMu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// attempt forwards one request to one backend and buffers the full
// response. Buffering is what makes retry safe: nothing is written to
// the client until a backend answered, so a failed attempt leaves the
// client connection untouched. On failure, isUnsent reports whether the
// backend provably never served the request.
func (rt *Router) attempt(ctx context.Context, backend int, method, path, reqID, contentType string, body []byte) (resp *http.Response, respBody []byte, isUnsent bool, err error) {
	rt.requests[backend].Add(1)
	if obs.Enabled() {
		obs.ShardRequests.With(strconv.Itoa(backend)).Inc()
	}
	if rt.client == nil {
		resp, respBody, isUnsent, err = rt.pools[backend].forward(ctx, method, path, reqID, contentType, body)
	} else {
		resp, respBody, isUnsent, err = rt.attemptClient(ctx, backend, method, path, reqID, contentType, body)
	}
	if err == nil && resp.StatusCode < 100 {
		// net/http reads any three digits as a status, but no handler
		// can relay one below 100.
		return nil, nil, false, fmt.Errorf("backend %d answered status %d", backend, resp.StatusCode)
	}
	return resp, respBody, isUnsent, err
}

// attemptClient is attempt through Config.Client, watching the connection
// with httptrace to tell an unsent failure.
func (rt *Router) attemptClient(ctx context.Context, backend int, method, path, reqID, contentType string, body []byte) (*http.Response, []byte, bool, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	var at attemptTrace
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, at.clientTrace()), method, rt.cfg.Backends[backend]+path, rd)
	if err != nil {
		return nil, nil, false, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, nil, at.unsent(err), err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, false, err
	}
	return resp, respBody, false, nil
}

// copyResponse relays a buffered backend response to the client,
// propagating headers — including Retry-After on a backend's own 429 —
// and the status code unchanged.
func copyResponse(w http.ResponseWriter, resp *http.Response, body []byte) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Request-ID"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body) //nolint:errcheck
}

// forwardKeyed routes a buffered POST by its placement key, failing over
// along the ring's preference order. Only unsent attempts retry: once a
// backend may have served the request it may have side effects there,
// and replaying a non-idempotent request is worse than an honest 502.
func (rt *Router) forwardKeyed(w http.ResponseWriter, r *http.Request, path string, body []byte) (*http.Response, []byte, int, bool) {
	reqID, ok := requestID(w, r)
	if !ok {
		return nil, nil, 0, false
	}
	contentType := r.Header.Get("Content-Type")
	if !validHeaderValue(contentType) {
		writeError(w, http.StatusBadRequest, "invalid Content-Type header")
		return nil, nil, 0, false
	}
	prefs := rt.ring.Prefer(placementKey(body))
	if len(prefs) == 0 {
		w.Header().Set("Retry-After", rt.adm.retryAfter())
		writeError(w, http.StatusServiceUnavailable, "no healthy backends")
		return nil, nil, 0, false
	}
	var lastErr error
	for i, backend := range prefs {
		if i > rt.cfg.MaxRetries {
			break
		}
		if i > 0 {
			rt.retries.Add(1)
			if obs.Enabled() {
				obs.ShardRetries.Inc()
			}
			rt.backoff(r.Context(), i-1)
			if r.Context().Err() != nil {
				break
			}
		}
		resp, respBody, unsent, err := rt.attempt(r.Context(), backend, r.Method, path, reqID, contentType, body)
		if err == nil {
			rt.health.reportForwardOK(backend)
			return resp, respBody, backend, true
		}
		lastErr = err
		if !unsent {
			// The backend may have served the request; the run may be
			// executing. Do not replay it elsewhere.
			writeError(w, http.StatusBadGateway, "backend %d failed mid-request: %v", backend, err)
			return nil, nil, 0, false
		}
		rt.health.reportConnectError(backend)
	}
	writeError(w, http.StatusBadGateway, "all placement candidates unreachable: %v", lastErr)
	return nil, nil, 0, false
}

func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	if !rt.adm.acquire() {
		w.Header().Set("Retry-After", rt.adm.retryAfter())
		writeError(w, http.StatusTooManyRequests, "cluster saturated: %d requests in flight", rt.cfg.MaxInflight)
		return
	}
	start := time.Now()
	defer func() { rt.adm.release(time.Since(start)) }()

	resp, respBody, backend, ok := rt.forwardKeyed(w, r, "/v1/run", body)
	if !ok {
		return
	}
	// Stamp the session→shard mapping so GET /v1/sessions/{id} finds the
	// backend that owns this session. Faulted runs (500) carry an ID too.
	if id := sessionID(respBody); id != "" {
		rt.recordSession(id, backend)
	}
	copyResponse(w, resp, respBody)
}

// sessionID returns the session ID a run reply carries. snapserved writes
// "id" as the first key, so a reply that opens with a plain ASCII ID
// string gives it up without a pass over the rest, trace and stage
// included; any other reply is decoded in full.
func sessionID(reply []byte) string {
	for _, open := range []string{"{\n  \"id\": \"", `{"id":"`} {
		if rest, ok := bytes.CutPrefix(reply, []byte(open)); ok {
			for i, c := range rest {
				if c == '"' {
					return string(rest[:i])
				}
				if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
					break
				}
			}
			break
		}
	}
	var run struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(reply, &run) != nil {
		return ""
	}
	return run.ID
}

func (rt *Router) handleCodegen(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	if !rt.adm.acquire() {
		w.Header().Set("Retry-After", rt.adm.retryAfter())
		writeError(w, http.StatusTooManyRequests, "cluster saturated: %d requests in flight", rt.cfg.MaxInflight)
		return
	}
	start := time.Now()
	defer func() { rt.adm.release(time.Since(start)) }()

	resp, respBody, _, ok := rt.forwardKeyed(w, r, "/v1/codegen", body)
	if !ok {
		return
	}
	copyResponse(w, resp, respBody)
}

// handleSession routes by the session→shard mapping stamped at submit
// time. Sessions live on exactly one backend, so there is no failover —
// but the GET is idempotent, so transient transport errors retry against
// the same backend.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if strings.IndexFunc(id, func(c rune) bool { return c < ' ' || c == 0x7f }) >= 0 {
		writeError(w, http.StatusBadRequest, "session ID %q holds a control character", id)
		return
	}
	backend, ok := rt.sessionBackend(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q routed through this cluster", id)
		return
	}
	reqID, ok := requestID(w, r)
	if !ok {
		return
	}
	path := "/v1/sessions/" + url.PathEscape(id)
	var lastErr error
	for attempt := 0; attempt <= rt.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			rt.retries.Add(1)
			if obs.Enabled() {
				obs.ShardRetries.Inc()
			}
			rt.backoff(r.Context(), attempt-1)
			if r.Context().Err() != nil {
				break
			}
		}
		resp, respBody, unsent, err := rt.attempt(r.Context(), backend, http.MethodGet, path, reqID, "", nil)
		if err == nil {
			rt.health.reportForwardOK(backend)
			copyResponse(w, resp, respBody)
			return
		}
		lastErr = err
		if unsent {
			rt.health.reportConnectError(backend)
		}
	}
	writeError(w, http.StatusBadGateway, "session backend unreachable: %v", lastErr)
}

func (rt *Router) recordSession(id string, backend int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.sessions[id]; !dup {
		rt.sessIDs = append(rt.sessIDs, id)
		for len(rt.sessIDs) > rt.cfg.SessionMemory {
			delete(rt.sessions, rt.sessIDs[0])
			rt.sessIDs = rt.sessIDs[1:]
		}
	}
	rt.sessions[id] = backend
}

func (rt *Router) sessionBackend(id string) (int, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b, ok := rt.sessions[id]
	return b, ok
}

// healthzBackend is one backend's entry in the router's health report.
type healthzBackend struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy, _, _ := rt.health.snapshot()
	live := 0
	backends := make([]healthzBackend, len(rt.cfg.Backends))
	for i, url := range rt.cfg.Backends {
		backends[i] = healthzBackend{URL: url, Healthy: healthy[i]}
		if healthy[i] {
			live++
		}
	}
	status, code := "ok", http.StatusOK
	switch {
	case live == 0:
		status, code = "down", http.StatusServiceUnavailable
	case live < len(backends):
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{ //nolint:errcheck
		"status":   status,
		"live":     live,
		"backends": backends,
		"inflight": rt.adm.inflight.Load(),
	}) //nolint:errcheck
}

// handleMetrics renders the router process's engine registry — the
// engine_shard_* families plus whatever else this process touched.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	obs.Default.Render(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String())) //nolint:errcheck
}
