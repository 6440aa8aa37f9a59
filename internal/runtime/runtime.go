// Package runtime is the execution-service layer over the interpreter: it
// runs untrusted block projects as governed sessions. The paper's pitch is
// that beginners hand their programs to a runtime that executes them safely
// on real parallel hardware; this package is the "safely" part. Every
// session runs under hard resource governance — a wall-clock deadline, a
// cumulative evaluator-step budget, a scheduler-round cap, and a bounded
// stage-output log — and a killed session's in-flight worker-pool jobs are
// canceled with it, so one `forever` loop (or one runaway parallelMap)
// cannot wedge a shared daemon.
//
// The Manager adds admission control on top: at most MaxConcurrent
// sessions execute at once, up to MaxQueue more wait in a bounded queue,
// and everything beyond that is rejected with ErrOverloaded — the 429 of
// the HTTP layer. All admitted sessions share the process-wide
// workers.SharedPool, so the chunked pool stays the single parallelism
// substrate no matter how many tenants are running.
package runtime

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
	_ "repro/internal/core" // register the paper's parallel blocks
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Limits is the per-session resource envelope. Zero fields inherit the
// manager's defaults and are clamped to its ceiling, so a client can ask
// for less than the house rules but never for more.
type Limits struct {
	// Timeout is the wall-clock deadline for the whole run (0 = default).
	Timeout time.Duration
	// MaxSteps caps cumulative evaluator ops across all of the session's
	// processes (0 = default).
	MaxSteps int64
	// MaxRounds caps scheduler rounds (0 = default).
	MaxRounds int
	// MaxTraceLines bounds the stage output log (0 = default).
	MaxTraceLines int
}

// withDefaults fills zero fields from d.
func (l Limits) withDefaults(d Limits) Limits {
	if l.Timeout <= 0 {
		l.Timeout = d.Timeout
	}
	if l.MaxSteps <= 0 {
		l.MaxSteps = d.MaxSteps
	}
	if l.MaxRounds <= 0 {
		l.MaxRounds = d.MaxRounds
	}
	if l.MaxTraceLines <= 0 {
		l.MaxTraceLines = d.MaxTraceLines
	}
	return l
}

// clamp caps each field at the ceiling (ceiling zeros mean uncapped).
func (l Limits) clamp(c Limits) Limits {
	if c.Timeout > 0 && (l.Timeout <= 0 || l.Timeout > c.Timeout) {
		l.Timeout = c.Timeout
	}
	if c.MaxSteps > 0 && (l.MaxSteps <= 0 || l.MaxSteps > c.MaxSteps) {
		l.MaxSteps = c.MaxSteps
	}
	if c.MaxRounds > 0 && (l.MaxRounds <= 0 || l.MaxRounds > c.MaxRounds) {
		l.MaxRounds = c.MaxRounds
	}
	if c.MaxTraceLines > 0 && (l.MaxTraceLines <= 0 || l.MaxTraceLines > c.MaxTraceLines) {
		l.MaxTraceLines = c.MaxTraceLines
	}
	return l
}

// Status classifies how a session ended.
type Status string

// The session outcomes.
const (
	// StatusOK: every process ran to completion.
	StatusOK Status = "ok"
	// StatusTimeout: the wall-clock deadline killed the session.
	StatusTimeout Status = "timeout"
	// StatusSteps: the evaluator-step budget killed the session.
	StatusSteps Status = "step-budget"
	// StatusRounds: the scheduler-round cap killed the session.
	StatusRounds Status = "round-limit"
	// StatusCanceled: the session was canceled (client gone, Cancel call).
	StatusCanceled Status = "canceled"
	// StatusError: the program itself died (bad block, cap exceeded, ...).
	StatusError Status = "error"
	// StatusFault: a primitive panicked on the interpreter path. The
	// panic is recovered at the session boundary (the daemon stays up,
	// the session is cleanly finished), classified here, and surfaced as
	// a 500 by the HTTP layer — a runtime bug, not a program error.
	StatusFault Status = "fault"
)

// ErrFault wraps a recovered primitive panic so classify (and callers
// using errors.Is) can tell a fault from a program error.
var ErrFault = errors.New("session fault")

// Result is the structured outcome of a finished session.
type Result struct {
	Status Status `json:"status"`
	// Error carries the run error's message for non-ok statuses.
	Error string `json:"error,omitempty"`
	// Trace is the (bounded) stage output log; TraceDropped counts lines
	// the bound discarded.
	Trace        []string `json:"trace"`
	TraceDropped int      `json:"trace_dropped,omitempty"`
	// Stage is the final stage snapshot (sorted actor lines).
	Stage []string `json:"stage"`
	// Scripts is how many green-flag scripts the project started.
	Scripts   int   `json:"scripts"`
	Rounds    int64 `json:"rounds"`
	Steps     int64 `json:"steps"`
	Timesteps int64 `json:"timesteps"`
	// QueueMS and RunMS are wait-for-admission and execution durations.
	QueueMS int64 `json:"queue_ms"`
	RunMS   int64 `json:"run_ms"`
}

// State is a session's lifecycle position.
type State string

// The lifecycle states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
)

// Session is one governed run of one project.
type Session struct {
	id      string
	traceID string
	done    chan struct{}
	cancel  atomic.Value // context.CancelFunc

	mu      sync.Mutex
	state   State
	machine *interp.Machine
	res     Result
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// TraceID returns the ID the session's spans are recorded under: the
// caller-supplied request ID when the run came through a fronting router
// (so spans correlate across the router→backend hop), the session ID
// otherwise.
func (s *Session) TraceID() string { return s.traceID }

// State reports the lifecycle position.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Done is closed when the session finishes.
func (s *Session) Done() <-chan struct{} { return s.done }

// Result returns the outcome; ok is false until the session is done.
func (s *Session) Result() (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res, s.state == StateDone
}

// TraceLines returns the stage output log so far — live for a running
// session (the stage trace is mutex-guarded), final afterwards.
func (s *Session) TraceLines() []string {
	s.mu.Lock()
	m := s.machine
	done := s.state == StateDone
	res := s.res
	s.mu.Unlock()
	if done {
		return res.Trace
	}
	if m != nil {
		return m.Stage.TraceLines()
	}
	return nil
}

// Cancel kills the session: its processes are stopped and their in-flight
// parallel jobs canceled. A no-op before the run starts or after it ends.
func (s *Session) Cancel() {
	if f, ok := s.cancel.Load().(context.CancelFunc); ok && f != nil {
		f()
	}
}

// ErrOverloaded is returned when admission control rejects a run: the
// concurrent-session limit is reached and the bounded wait queue is full
// (or the wait budget elapsed). HTTP callers map it to 429.
var ErrOverloaded = errors.New("execution service overloaded")

// Config parameterizes a Manager.
type Config struct {
	// MaxConcurrent bounds simultaneously executing sessions (default 4).
	MaxConcurrent int
	// MaxQueue bounds sessions waiting for a slot (default MaxConcurrent).
	MaxQueue int
	// QueueWait is the longest a session waits for a slot before being
	// rejected (default 5s).
	QueueWait time.Duration
	// Defaults fills unset request limits; Ceiling caps them.
	Defaults Limits
	Ceiling  Limits
	// KeepDone bounds the registry of finished sessions kept for
	// GET /v1/sessions (default 256).
	KeepDone int
}

// DefaultLimits is the house envelope applied when a Config leaves
// Defaults zero: generous enough for every paper demo, tight enough that a
// runaway session dies in seconds.
var DefaultLimits = Limits{
	Timeout:       10 * time.Second,
	MaxSteps:      50_000_000,
	MaxRounds:     5_000_000,
	MaxTraceLines: 10_000,
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if (c.Defaults == Limits{}) {
		c.Defaults = DefaultLimits
	}
	if c.KeepDone <= 0 {
		c.KeepDone = 256
	}
	return c
}

// Stats is a snapshot of the manager's counters, the backing for /metrics.
type Stats struct {
	Running  int
	Queued   int
	Admitted int64
	Rejected int64
	ByStatus map[Status]int64
}

// Manager admits, runs, and remembers sessions.
type Manager struct {
	cfg    Config
	slots  chan struct{}
	queued atomic.Int32

	admitted atomic.Int64
	rejected atomic.Int64

	mu       sync.Mutex
	sessions map[string]*Session
	doneIDs  []string // finished sessions in completion order, for eviction
	byStatus map[Status]int64
}

// NewManager builds a manager; zero Config fields get defaults.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:      cfg,
		slots:    make(chan struct{}, cfg.MaxConcurrent),
		sessions: map[string]*Session{},
		byStatus: map[Status]int64{},
	}
}

// Config returns the effective (defaulted) configuration.
func (mgr *Manager) Config() Config { return mgr.cfg }

// Session looks up a session by ID.
func (mgr *Manager) Session(id string) *Session {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.sessions[id]
}

// Stats snapshots the counters.
func (mgr *Manager) Stats() Stats {
	mgr.mu.Lock()
	by := make(map[Status]int64, len(mgr.byStatus))
	for k, v := range mgr.byStatus {
		by[k] = v
	}
	mgr.mu.Unlock()
	return Stats{
		Running:  len(mgr.slots),
		Queued:   int(mgr.queued.Load()),
		Admitted: mgr.admitted.Load(),
		Rejected: mgr.rejected.Load(),
		ByStatus: by,
	}
}

// Drain waits until no session is running or queued, bounded by timeout.
// It reports whether the manager went idle in time. Draining does not
// reject new work by itself — the daemon stops routing traffic here first
// (the LB ejects on the draining /healthz) and then waits for the
// in-flight tail before exiting.
func (mgr *Manager) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		st := mgr.Stats()
		if st.Running == 0 && st.Queued == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("runtime: no entropy for session IDs: " + err.Error())
	}
	return "s-" + hex.EncodeToString(b[:])
}

// Run admits and executes one project as a governed session, synchronously
// on the caller's goroutine. On success the returned session is done and
// holds a Result (which may still describe a timeout or budget kill — those
// are outcomes, not Run errors). Run errors mean the session never ran:
// ErrOverloaded from admission control, or the context's error if the
// caller gave up while queued.
func (mgr *Manager) Run(ctx context.Context, project *blocks.Project, lim Limits) (*Session, error) {
	return mgr.RunTraced(ctx, interp.NewPlan(project), lim, "")
}

// RunTraced is Run over a project's run plan, which a caller that runs
// one project many times keeps (the server's Tier A entries do), with an
// explicit trace ID: a non-empty requestID (the router's X-Request-ID)
// becomes the ID every span of this session is recorded under, so one
// distributed request correlates across the router→backend hop. Empty
// requestID keeps the session ID as the trace ID — standalone behavior is
// unchanged.
func (mgr *Manager) RunTraced(ctx context.Context, plan *interp.Plan, lim Limits, requestID string) (*Session, error) {
	lim = lim.withDefaults(mgr.cfg.Defaults).clamp(mgr.cfg.Ceiling)

	// Admission: bounded queue, bounded wait. A free slot is taken at
	// once; only a full manager arms the wait timer.
	if int(mgr.queued.Add(1)) > mgr.cfg.MaxQueue {
		mgr.queued.Add(-1)
		mgr.rejected.Add(1)
		return nil, fmt.Errorf("%w: wait queue full (%d sessions waiting)", ErrOverloaded, mgr.cfg.MaxQueue)
	}
	waitStart := time.Now()
	select {
	case mgr.slots <- struct{}{}:
	default:
		if err := mgr.awaitSlot(ctx); err != nil {
			mgr.queued.Add(-1)
			return nil, err
		}
	}
	mgr.queued.Add(-1)
	mgr.admitted.Add(1)
	defer func() { <-mgr.slots }()

	s := &Session{id: newID(), traceID: requestID, done: make(chan struct{}), state: StateQueued}
	if s.traceID == "" {
		s.traceID = s.id
	}
	mgr.mu.Lock()
	mgr.sessions[s.id] = s
	mgr.mu.Unlock()

	mgr.execute(ctx, s, plan, lim, time.Since(waitStart))
	return s, nil
}

// awaitSlot waits for an execution slot, at most QueueWait: ErrOverloaded
// when the wait runs out, the context's error when the caller gives up.
func (mgr *Manager) awaitSlot(ctx context.Context) error {
	waitTimer := time.NewTimer(mgr.cfg.QueueWait)
	defer waitTimer.Stop()
	select {
	case mgr.slots <- struct{}{}:
		return nil
	case <-waitTimer.C:
		mgr.rejected.Add(1)
		return fmt.Errorf("%w: no execution slot within %v", ErrOverloaded, mgr.cfg.QueueWait)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// execute runs the session to its end and records the result.
func (mgr *Manager) execute(ctx context.Context, s *Session, plan *interp.Plan, lim Limits, waited time.Duration) {
	var runCtx context.Context
	var cancel context.CancelFunc
	if lim.Timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, lim.Timeout)
	} else {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	s.cancel.Store(cancel)

	m := plan.NewMachine(vclock.New())
	m.TraceID = s.traceID // worker jobs launched by this session share its span ID
	if lim.MaxTraceLines > 0 {
		m.Stage.MaxTrace = lim.MaxTraceLines
	}
	s.mu.Lock()
	s.machine = m
	s.state = StateRunning
	s.mu.Unlock()

	begin := time.Now()
	started, err := runContained(runCtx, m, lim)
	res := Result{
		Status:       classify(err),
		Trace:        m.Stage.TraceLines(),
		TraceDropped: m.Stage.TraceDropped(),
		Stage:        m.Stage.Snapshot(),
		Scripts:      len(started),
		Rounds:       m.Round(),
		Steps:        m.Steps(),
		Timesteps:    m.Stage.Timer.Elapsed(),
		QueueMS:      waited.Milliseconds(),
		RunMS:        time.Since(begin).Milliseconds(),
	}
	if err != nil {
		res.Error = err.Error()
	}
	if obs.Enabled() {
		elapsed := time.Since(begin)
		obs.SessionsTotal.Inc()
		obs.SessionSteps.Observe(float64(res.Steps))
		if lim.Timeout > 0 {
			// Deadline slack: how much of the wall-clock budget the
			// session left unused. Near-zero slack on ok sessions means
			// the house Timeout is about to start killing real work.
			slack := lim.Timeout - elapsed
			if slack < 0 {
				slack = 0
			}
			obs.SessionSlackSeconds.Observe(slack.Seconds())
		}
		obs.RecordSpan(obs.Span{
			ID:    s.traceID,
			Kind:  "session",
			Start: begin,
			Dur:   elapsed,
			Attrs: []obs.Attr{
				{Key: "status", Val: string(res.Status)},
				obs.AttrInt("scripts", int64(res.Scripts)),
				obs.AttrInt("steps", res.Steps),
				obs.AttrInt("rounds", res.Rounds),
				obs.AttrInt("queue_ms", res.QueueMS),
			},
		})
	}

	// A finished session keeps its result, not its machine: the manager
	// holds KeepDone finished sessions, and each machine pins its frames,
	// globals and actors. TraceLines reads res.Trace from here on.
	s.mu.Lock()
	s.state = StateDone
	s.res = res
	s.machine = nil
	s.mu.Unlock()
	close(s.done)

	mgr.mu.Lock()
	mgr.byStatus[res.Status]++
	mgr.doneIDs = append(mgr.doneIDs, s.id)
	for len(mgr.doneIDs) > mgr.cfg.KeepDone {
		delete(mgr.sessions, mgr.doneIDs[0])
		mgr.doneIDs = mgr.doneIDs[1:]
	}
	mgr.mu.Unlock()
}

// runContained runs the machine to its end with the session boundary's
// panic containment: a primitive that panics on the interpreter path
// (instead of returning an error like a well-behaved one) must not crash
// the whole multi-tenant daemon or leave the session wedged mid-state.
// The recover turns the panic into an ErrFault-wrapped error, after
// killing the machine so the session's in-flight worker jobs are
// canceled just as on any other abnormal end.
func runContained(ctx context.Context, m *interp.Machine, lim Limits) (started []*interp.Process, err error) {
	defer func() {
		if r := recover(); r != nil {
			// Kill under its own recover: OnDone hooks run user-adjacent
			// code and must not turn containment into a crash.
			func() {
				defer func() { _ = recover() }()
				m.Kill()
			}()
			err = fmt.Errorf("%w: recovered panic: %v", ErrFault, r)
		}
	}()
	started = m.GreenFlag()
	err = m.RunContext(ctx, interp.RunLimits{MaxRounds: lim.MaxRounds, MaxSteps: lim.MaxSteps})
	return started, err
}

// classify maps a RunContext error to a session status.
func classify(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrFault):
		return StatusFault
	case errors.Is(err, interp.ErrStepLimit):
		return StatusSteps
	case errors.Is(err, interp.ErrRoundLimit):
		return StatusRounds
	case errors.Is(err, context.DeadlineExceeded):
		return StatusTimeout
	case errors.Is(err, context.Canceled):
		return StatusCanceled
	default:
		return StatusError
	}
}

// SetGlobalCaps installs the process-wide value-size caps (list length and
// text bytes) every session shares; see interp.SetValueCaps. Daemons call
// it once at startup.
func SetGlobalCaps(maxListLen, maxTextLen int) {
	interp.SetValueCaps(maxListLen, maxTextLen)
}
