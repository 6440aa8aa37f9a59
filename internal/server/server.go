// Package server exposes the execution service over HTTP/JSON: the
// multi-tenant front door to the paper's runtime. POST /v1/run executes an
// uploaded block project (textual .sblk or Snap! XML) as a governed
// session; POST /v1/codegen runs the §6 code-mapping feature, translating
// blocks to C, OpenMP C, JavaScript, Python, or Go; GET /v1/sessions/{id}
// reports status and trace; /healthz and /metrics serve operators.
//
// Untrusted projects are lint-gated before they run (error-severity
// findings reject with 400), resource-governed while they run (see
// internal/runtime), and load-shed when the service is full (429 from
// admission control). All sessions share the process-wide worker pool.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/progcache"
	"repro/internal/runtime"
	"repro/internal/xmlio"
)

// Config parameterizes a Server.
type Config struct {
	// Runtime configures the session manager (admission limits, budgets).
	Runtime runtime.Config
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// CacheBytes is the byte budget of the content-addressed project
	// cache (parsed ASTs + lint findings, keyed on the project as the
	// request body carries it).
	// 0 means the progcache default; negative disables caching, so every
	// request re-parses and re-lints.
	CacheBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose stacks and timing oracles, so
	// operators opt in with snapserved -pprof.
	EnablePprof bool
}

// Server is the HTTP front end over a runtime.Manager.
type Server struct {
	cfg      Config
	mgr      *runtime.Manager
	met      *metrics
	mux      *http.ServeMux
	cache    *progcache.Projects // nil when disabled
	draining atomic.Bool
}

// New builds a server and its session manager.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = progcache.DefaultProjectBudget
	}
	s := &Server{
		cfg:   cfg,
		mgr:   runtime.NewManager(cfg.Runtime),
		met:   newMetrics(),
		mux:   http.NewServeMux(),
		cache: progcache.NewProjects(cfg.CacheBytes), // nil when CacheBytes < 0
	}
	s.mux.HandleFunc("POST /v1/run", s.instrument("/v1/run", s.handleRun))
	s.mux.HandleFunc("POST /v1/codegen", s.instrument("/v1/codegen", s.handleCodegen))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("/v1/sessions/{id}", s.handleSession))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		// Mounted on the server's own mux (we never serve the default
		// mux), so the flag really is the only way in.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the session manager (for daemon wiring and tests).
func (s *Server) Manager() *runtime.Manager { return s.mgr }

// CacheStats snapshots the Tier A project-cache counters (zero value when
// caching is disabled) — the always-on source the shard e2e suite reads to
// assert cache affinity per backend.
func (s *Server) CacheStats() progcache.Stats { return s.cache.Stats() }

// SetDraining flips the draining state. While draining, /healthz answers
// 503 with status "draining" so a fronting shard router ejects this
// backend before the daemon finishes its in-flight sessions and exits.
// Requests already in flight (and any stragglers that arrive before the
// router reacts) are still served normally.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// Draining reports whether SetDraining was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusRecorder captures the response code for the request counters,
// and whether the answer has begun.
type statusRecorder struct {
	http.ResponseWriter
	code    int
	started bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.started = true
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	sr.started = true
	return sr.ResponseWriter.Write(b)
}

// instrument wraps a handler with the body cap, per-endpoint metrics and
// panic containment. The endpoint label is the route pattern, not the
// concrete path, so session IDs never explode metric cardinality.
//
// A panic outside a session (sessions contain their own) is answered
// like a session fault: 500 with the panic value. Left to net/http, it
// would drop the connection unanswered, and a fronting router may read
// a connection that ends with no answer as a request never served. If
// the answer had already begun, what was written is flushed first and
// then the connection is dropped, so the client sees a partial answer,
// never none.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			p := recover()
			abort := p != nil && rec.started
			if p != nil && !abort {
				writeJSON(rec, http.StatusInternalServerError, faultBody{
					Status: runtime.StatusFault, Error: fmt.Sprintf("handler panic: %v", p)})
			}
			s.met.request(endpoint, rec.code, time.Since(start).Seconds())
			if abort {
				http.NewResponseController(w).Flush() //nolint:errcheck // the connection is dropped next
				panic(http.ErrAbortHandler)
			}
		}()
		h(rec, r)
	}
}

// faultBody answers a request whose handler panicked with the status
// and error fields of a faulted session's response.
type faultBody struct {
	Status runtime.Status `json:"status"`
	Error  string         `json:"error"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	// Findings carries lint diagnostics when the project was rejected.
	Findings []string `json:"findings,omitempty"`
}

// writeJSON encodes v before writing the header, so an encoding panic
// leaves the answer unstarted and instrument can still send a 500. The
// served replies take writeReply instead, which writes the same bytes.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, _ := json.MarshalIndent(v, "", "  ") // every response type encodes
	writeBody(w, code, append(b, '\n'))
}

// writeBody writes an encoded JSON answer.
func writeBody(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeReply(w, code, &errorBody{Error: fmt.Sprintf(format, args...)})
}

// request is one run or codegen body, read once, with the bytes it came
// from: they key Tier A when the scanner refused the body.
type request struct {
	progcache.Envelope
	body []byte
	buf  *[]byte // the pooled buffer body lives in
}

// bodyBufs recycles body buffers. Nothing read from a body outlives its
// handler: the Tier A key, the unquoted source and what encoding/json
// decodes are all copies.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the buffers kept for reuse, so one large upload
// does not stay resident.
const maxPooledBody = 64 << 10

// free returns the body's buffer to the pool; the request must not be
// read afterwards.
func (q *request) free() {
	if q.buf != nil && cap(q.body) <= maxPooledBody {
		*q.buf = q.body[:0]
		bodyBufs.Put(q.buf)
	}
	*q = request{}
}

// readRequest reads a run or codegen body and answers a malformed or
// oversized one (413 when the cap cut its object short, else 400). v is a
// pointer to the endpoint's request type, which encoding/json fills when
// the scanner refuses the body. ok is false when the request was
// answered.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, v any) (request, bool) {
	q, err := decodeRequest(r.Body, r.ContentLength, s.cfg.MaxBodyBytes, v)
	if err != nil {
		code, msg := decodeError(err)
		writeError(w, code, "%s", msg)
		return request{}, false
	}
	return q, true
}

// decodeError is the status and wording of a body that failed to decode.
func decodeError(err error) (int, string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)
	}
	return http.StatusBadRequest, fmt.Sprintf("decode request: %v", err)
}

// decodeRequest reads the body once, at most limit bytes of it (size is
// the declared length, -1 if unknown), and scans it. A body the scanner
// refuses is decoded into v by encoding/json from the same bytes, then
// from rd onwards: a body past the cap, or a read error, reaches the
// decoder where it would have reading rd alone, so status and wording
// are encoding/json's. The caller frees a request it got without error.
func decodeRequest(rd io.Reader, size, limit int64, v any) (request, error) {
	q := request{buf: bodyBufs.Get().(*[]byte)}
	q.body = readUpTo(*q.buf, rd, size, limit)
	if env, ok := progcache.ScanEnvelope(q.body); ok {
		q.Envelope = env
		return q, nil
	}
	if err := json.NewDecoder(io.MultiReader(bytes.NewReader(q.body), rd)).Decode(v); err != nil {
		q.free()
		return request{}, err
	}
	switch req := v.(type) {
	case *RunRequest:
		q.Envelope = progcache.Envelope{
			Project: progcache.Text(req.Project), Format: req.Format,
			TimeoutMS: req.TimeoutMS, MaxSteps: req.MaxSteps,
			MaxRounds: int64(req.MaxRounds), MaxTraceLines: int64(req.MaxTraceLines),
		}
	case *CodegenRequest:
		q.Envelope = progcache.Envelope{
			Script: progcache.Text(req.Script), Project: progcache.Text(req.Project),
			Format: req.Format, Lang: req.Lang,
		}
	default:
		panic(fmt.Sprintf("server: decode into %T", v))
	}
	return q, nil
}

// readUpTo reads rd to its end, or to limit bytes, into buf, replaced by
// one buffer sized from the declared length when it is too small. It
// never asks rd for a byte past limit, so reading the body does not by
// itself trip the cap: the decoder does, if it needs a byte past it. Read
// errors are left in rd for the decoder.
func readUpTo(buf []byte, rd io.Reader, size, limit int64) []byte {
	if size < 0 {
		size = 512
	}
	if want := min(size, limit) + 1; int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	buf = buf[:0]
	lr := io.LimitedReader{R: rd, N: limit}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf
		}
	}
}

// decodeProject turns an uploaded project (textual .sblk s-expressions or
// Snap! XML) into a block AST. Auto-detection matches cmd/snapvm: textual
// projects start with a ( form or a ; comment, XML with <.
func decodeProject(src, format string) (*blocks.Project, error) {
	trimmed := strings.TrimSpace(src)
	if trimmed == "" {
		return nil, errors.New("empty project")
	}
	switch strings.ToLower(format) {
	case "", "auto":
		if strings.HasPrefix(trimmed, "(") || strings.HasPrefix(trimmed, ";") {
			return parse.Project(src)
		}
		if strings.HasPrefix(trimmed, "<") {
			return xmlio.DecodeProject(strings.NewReader(src))
		}
		return nil, errors.New("unrecognized project format: want textual s-expressions or Snap! XML")
	case "sblk", "text":
		return parse.Project(src)
	case "xml":
		return xmlio.DecodeProject(strings.NewReader(src))
	default:
		return nil, fmt.Errorf("unknown format %q (want auto, sblk, or xml)", format)
	}
}

// elaborate is the uncached decode-and-lint pipeline: one Tier A cache
// load. It also works out the project's run plan, so a cached request
// builds its machine without walking the project. Parse failures and lint
// findings are part of the outcome, so a cached rejection replays as
// cheaply as a cached success.
func elaborate(src, format string) *progcache.ProjectEntry {
	project, err := decodeProject(src, format)
	if err != nil {
		return &progcache.ProjectEntry{ParseErr: err.Error()}
	}
	ent := &progcache.ProjectEntry{Project: project, Plan: interp.NewPlan(project)}
	for _, f := range lint.Project(project) {
		if f.Severity == lint.Error {
			ent.Fatal = append(ent.Fatal, f.String())
		} else {
			ent.Warnings = append(ent.Warnings, f.String())
		}
	}
	return ent
}

// project resolves a request's project through the Tier A cache
// (straight through elaborate when caching is disabled) and translates
// cached rejections into their HTTP replies. The project is unquoted only
// when it is elaborated. ok is false when the request was answered;
// otherwise the entry's Project and Warnings are live — and shared with
// other requests, so callers must treat them as read-only.
func (s *Server) project(w http.ResponseWriter, q *request) (*progcache.ProjectEntry, bool) {
	load := func() *progcache.ProjectEntry { return elaborate(q.Project.String(), q.Format) }
	var ent *progcache.ProjectEntry
	if s.cache != nil {
		ent, _ = s.cache.Lookup(q.Key(q.body), load) // the key the router placed it by
	} else {
		ent = load()
	}
	switch {
	case ent.ParseErr != "":
		writeError(w, http.StatusBadRequest, "parse project: %s", ent.ParseErr)
		return nil, false
	case len(ent.Fatal) > 0:
		// Build the combined findings fresh: the cached slices are
		// shared across requests and must not be appended to in place.
		findings := make([]string, 0, len(ent.Fatal)+len(ent.Warnings))
		findings = append(findings, ent.Fatal...)
		findings = append(findings, ent.Warnings...)
		writeReply(w, http.StatusBadRequest, &errorBody{
			Error:    fmt.Sprintf("project rejected by lint (%d errors)", len(ent.Fatal)),
			Findings: findings,
		})
		return nil, false
	}
	return ent, true
}

// RunRequest is the POST /v1/run body.
type RunRequest struct {
	// Project is the program source, textual .sblk or Snap! XML.
	Project string `json:"project"`
	// Format forces the source syntax: auto (default), sblk, or xml.
	Format string `json:"format,omitempty"`
	// The resource envelope; zeros inherit the service defaults and
	// everything is clamped to the service ceiling.
	TimeoutMS     int64 `json:"timeout_ms,omitempty"`
	MaxSteps      int64 `json:"max_steps,omitempty"`
	MaxRounds     int   `json:"max_rounds,omitempty"`
	MaxTraceLines int   `json:"max_trace_lines,omitempty"`
}

// RunResponse is the POST /v1/run reply: the session outcome plus its ID
// (for GET /v1/sessions/{id}) and any lint warnings.
type RunResponse struct {
	ID       string   `json:"id"`
	Warnings []string `json:"warnings,omitempty"`
	runtime.Result
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	q, ok := s.readRequest(w, r, new(RunRequest))
	if !ok {
		return
	}
	defer q.free()
	ent, ok := s.project(w, &q)
	if !ok {
		return
	}
	lim := runtime.Limits{
		Timeout:       time.Duration(q.TimeoutMS) * time.Millisecond,
		MaxSteps:      q.MaxSteps,
		MaxRounds:     int(q.MaxRounds),
		MaxTraceLines: int(q.MaxTraceLines),
	}
	// A router in front of us stamps X-Request-ID; adopting it as the
	// session's trace ID makes the engine job spans of this run
	// addressable by the distributed request, not just the local session.
	reqID := r.Header.Get("X-Request-ID")
	if reqID != "" {
		w.Header().Set("X-Request-ID", reqID)
	}
	sess, err := s.mgr.RunTraced(r.Context(), ent.Plan, lim, reqID)
	switch {
	case errors.Is(err, runtime.ErrOverloaded):
		w.Header().Set("Retry-After", s.retryAfter())
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		// The client's context died while the session was queued.
		writeError(w, http.StatusServiceUnavailable, "session never started: %v", err)
		return
	}
	res, _ := sess.Result()
	s.met.session(res.Steps)
	code := http.StatusOK
	if res.Status == runtime.StatusFault {
		// A primitive panicked inside the session. The fault was contained
		// at the session boundary — the daemon and its pool are fine — but
		// the run itself is a server-side failure, not a program outcome.
		code = http.StatusInternalServerError
	}
	writeReply(w, code, &RunResponse{ID: sess.ID(), Warnings: ent.Warnings, Result: res})
}

// retryAfter derives the 429 Retry-After hint from the admission queue
// wait: a client backing off that long is guaranteed a fresh admission
// window rather than rejoining the same full queue.
func (s *Server) retryAfter() string {
	secs := int(math.Ceil(s.mgr.Config().QueueWait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// CodegenRequest is the POST /v1/codegen body. Either Script (a bare
// textual script) or Project (a whole project whose first green-flag
// script is translated) must be set.
type CodegenRequest struct {
	Script  string `json:"script,omitempty"`
	Project string `json:"project,omitempty"`
	Format  string `json:"format,omitempty"`
	// Lang is the target: c, openmp, js, python, or go.
	Lang string `json:"lang"`
}

// CodegenResponse is the POST /v1/codegen reply.
type CodegenResponse struct {
	Lang     string   `json:"lang"`
	Source   string   `json:"source"`
	Warnings []string `json:"warnings,omitempty"`
}

func (s *Server) handleCodegen(w http.ResponseWriter, r *http.Request) {
	q, ok := s.readRequest(w, r, new(CodegenRequest))
	if !ok {
		return
	}
	defer q.free()
	var script *blocks.Script
	var warnings []string
	switch {
	case !q.Script.Empty() && !q.Project.Empty():
		writeError(w, http.StatusBadRequest, "give either script or project, not both")
		return
	case !q.Script.Empty():
		var err error
		script, err = parse.Script(q.Script.String())
		if err != nil {
			writeError(w, http.StatusBadRequest, "parse script: %v", err)
			return
		}
	case !q.Project.Empty():
		ent, ok := s.project(w, &q)
		if !ok {
			return
		}
		warnings = ent.Warnings
		if script = greenFlagScript(ent.Project); script == nil {
			writeError(w, http.StatusBadRequest, "project has no green-flag script to translate")
			return
		}
	default:
		writeError(w, http.StatusBadRequest, "empty request: give script or project")
		return
	}

	lang := strings.ToLower(q.Lang)
	if lang == "" {
		lang = "c"
	}
	src, err := codegen.Emit(lang, script)
	switch {
	case errors.Is(err, codegen.ErrUnknownLang):
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusUnprocessableEntity, "translate: %v", err)
		return
	}
	writeReply(w, http.StatusOK, &CodegenResponse{Lang: lang, Source: src, Warnings: warnings})
}

func greenFlagScript(p *blocks.Project) *blocks.Script {
	for _, sp := range p.Sprites {
		for _, hs := range sp.Scripts {
			if hs.Hat == blocks.HatGreenFlag {
				return hs.Script
			}
		}
	}
	return nil
}

// SessionResponse is the GET /v1/sessions/{id} reply. Trace is live while
// the session runs; Result appears once it is done. Spans summarizes the
// engine-side work the session triggered (parallel maps, mapReduce runs,
// the session itself) when observability is enabled — spans are retained
// in a bounded ring, so long-gone sessions may have none.
type SessionResponse struct {
	ID     string          `json:"id"`
	State  runtime.State   `json:"state"`
	Trace  []string        `json:"trace"`
	Result *runtime.Result `json:"result,omitempty"`
	Spans  []SpanSummary   `json:"spans,omitempty"`
}

// SpanSummary is one engine span in a session response.
type SpanSummary struct {
	Kind       string     `json:"kind"`
	DurationMS float64    `json:"duration_ms"`
	Attrs      []obs.Attr `json:"attrs,omitempty"`
}

func spanSummaries(id string) []SpanSummary {
	spans := obs.SpansFor(id)
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanSummary, len(spans))
	for i, sp := range spans {
		out[i] = SpanSummary{
			Kind:       sp.Kind,
			DurationMS: float64(sp.Dur) / float64(time.Millisecond),
			Attrs:      sp.Attrs,
		}
	}
	return out
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.mgr.Session(id)
	if sess == nil {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	resp := SessionResponse{ID: sess.ID(), State: sess.State(), Trace: sess.TraceLines()}
	if res, done := sess.Result(); done {
		resp.Result = &res
		resp.Spans = spanSummaries(sess.TraceID())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.mgr.Stats()
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// 503 (not a body-only hint) so any health checker — ours or a
		// stock LB — takes the backend out without parsing JSON.
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":  status,
		"running": st.Running,
		"queued":  st.Queued,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.mgr.Stats()
	gauges := []gaugeFunc{
		{"snapserved_sessions_running", "Sessions executing now.", func() float64 { return float64(st.Running) }},
		{"snapserved_sessions_queued", "Sessions waiting for an execution slot.", func() float64 { return float64(st.Queued) }},
		{"snapserved_admitted_total", "Sessions admitted by admission control.", func() float64 { return float64(st.Admitted) }},
		{"snapserved_rejected_total", "Sessions rejected by admission control.", func() float64 { return float64(st.Rejected) }},
	}
	totals := make(map[string]int64, len(st.ByStatus))
	for status, n := range st.ByStatus {
		totals[string(status)] = n
	}
	var b strings.Builder
	s.met.render(&b, gauges, totals)
	obs.Default.Render(&b) // engine-side series (engine_* families)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String())) //nolint:errcheck
}
