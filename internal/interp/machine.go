package interp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"

	"repro/internal/blocks"
	"repro/internal/stage"
	"repro/internal/value"
	"repro/internal/vclock"
)

// DefaultSliceOps is the default time slice: how many evaluator operations
// one process may run per scheduler round before the thread manager moves
// on ("each process executes for a short amount of time called a time
// slice before yielding to the next process", §2).
const DefaultSliceOps = 1000

// Machine is Snap!'s run-time system: the thread manager at "the heart of
// the Snap! programming environment" (§2). It owns the project, the stage,
// the virtual clock, and the process queue, and it steps every live
// process one at a time in an interleaved fashion — concurrency on a
// single thread of control, the paper's foil for the true parallelism of
// the Web-Worker blocks.
type Machine struct {
	Project *blocks.Project
	Stage   *stage.Stage
	// SliceOps is the per-process op budget per round.
	SliceOps int
	// TraceBlock, when set, is invoked before every block application —
	// the hook behind snapvm's -traceblocks "watch the blocks run" mode
	// and a test observation point. Keep it fast; it runs on the
	// interpreter's hot path.
	TraceBlock func(p *Process, b *blocks.Block)
	// TraceID labels this machine's work in the observability layer
	// (internal/obs): the parallel blocks stamp it onto the worker jobs
	// they launch, so a governed session's span and its jobs' spans
	// share an ID. Set before GreenFlag; empty means unlabeled.
	TraceID string

	procs []*Process
	rng   *rand.Rand
	fs    FileSystem
	plan  *Plan
	// frames are the scopes the plan lays out: the global frame, then
	// one per sprite that declares variables. actors are the sprites'
	// actors, in project order; cloneSprite binds each live clone to its
	// sprite.
	frames      []Frame
	globalFrame *Frame
	actors      []stage.Actor
	cloneSprite map[*stage.Actor]*blocks.Sprite
	errs        []error
	round       int64
	steps       int64
	// After each round: waitOn holds the done channels of the live
	// processes when every one of them parked on a parallel job and the
	// clock stood still, so nothing can change until a job resolves;
	// pollers reports that some process parked while others ran.
	waitOn   []<-chan struct{}
	pollers  bool
	evalWrap *blocks.Script
	// The RunScript scratch pair, minted once per machine: the sprite is
	// immutable and the actor is rehomed to its just-added state before
	// each run, so reuse is indistinguishable from a fresh AddActor
	// (except for the actor ID, which no script output exposes).
	scratchSp    *blocks.Sprite
	scratchActor *stage.Actor
}

// NewMachine builds a machine for the project over a fresh stage driven by
// the given clock (nil for a plain clock). Every sprite gets a stage actor.
// It is NewPlan(project).NewMachine(clock); a caller that builds many
// machines for one project keeps the plan instead.
func NewMachine(project *blocks.Project, clock *vclock.Clock) *Machine {
	return NewPlan(project).NewMachine(clock)
}

// Reset returns the machine to its post-NewMachine state over the same
// project, stage, and clock: every process, actor, trace line, error, and
// accumulated counter is dropped and the scopes and actors are rebuilt
// from the machine's plan. Eval-style servers run one scratch machine per
// request; a pool of Reset machines makes that pattern pay only
// per-script costs. Scopes are rebuilt as fresh frames, not recycled
// ones, so ring values that escaped a previous run keep their captured
// environment intact.
func (m *Machine) Reset() {
	m.Stage.Reset()
	m.SliceOps = DefaultSliceOps
	m.TraceBlock = nil
	m.TraceID = ""
	m.rng = nil
	m.fs = nil
	for i := range m.procs {
		m.procs[i] = nil
	}
	m.procs = m.procs[:0]
	m.errs = nil
	m.round, m.steps = 0, 0
	m.waitOn, m.pollers = m.waitOn[:0], false
	if m.evalWrap != nil {
		// Unpin the last evaluated reporter; the shell itself is reused.
		m.evalWrap.Blocks[0].Inputs[0] = nil
	}
	// Stage.Reset dropped the actors, the scratch one included.
	m.scratchSp, m.scratchActor = nil, nil
	m.build()
}

// Rand is the machine's deterministic random stream (seeded; reproducible
// runs are worth more to a test suite than entropy). SeedRand reseeds it.
func (m *Machine) Rand() *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(1))
	}
	return m.rng
}

// SeedRand reseeds the machine's random stream.
func (m *Machine) SeedRand(seed int64) { m.rng = rand.New(rand.NewSource(seed)) }

// FS is the machine's file store for the §6.3 file blocks; it defaults to
// an in-memory MemFS.
func (m *Machine) FS() FileSystem {
	if m.fs == nil {
		m.fs = MemFS{}
	}
	return m.fs
}

// SetFS attaches a file store (e.g. a DirFS rooted at a project
// directory).
func (m *Machine) SetFS(fs FileSystem) { m.fs = fs }

// GlobalFrame exposes the project-global scope.
func (m *Machine) GlobalFrame() *Frame { return m.globalFrame }

// SpriteFrame returns the sprite-level scope, or nil when the sprite
// declares no variables: its scripts then see the global scope directly.
func (m *Machine) SpriteFrame(sp *blocks.Sprite) *Frame {
	if i, ok := m.plan.scope[sp]; ok {
		return &m.frames[i]
	}
	return nil
}

// spriteOf is the sprite an actor runs scripts for: an original's own
// sprite, the sprite a clone was bound to, or nil.
func (m *Machine) spriteOf(a *stage.Actor) *blocks.Sprite {
	if a.IsClone() {
		return m.cloneSprite[a]
	}
	if len(m.actors) > 0 {
		if i := a.ID - m.actors[0].ID; i >= 0 && i < len(m.actors) && &m.actors[i] == a {
			return m.Project.Sprites[i]
		}
	}
	return nil
}

func (m *Machine) bindClone(a *stage.Actor, sp *blocks.Sprite) {
	if m.cloneSprite == nil {
		m.cloneSprite = map[*stage.Actor]*blocks.Sprite{}
	}
	m.cloneSprite[a] = sp
}

// SpawnScript starts a new process running script on behalf of (sprite,
// actor); it begins executing on the next scheduler round, like a script
// whose hat block just fired.
func (m *Machine) SpawnScript(sp *blocks.Sprite, actor *stage.Actor, script *blocks.Script) *Process {
	base := m.globalFrame
	if f := m.SpriteFrame(sp); f != nil {
		base = f
	}
	// Build the process without its initial tree context: when the spawn
	// hook installs a bytecode executor the context is never used, and
	// this is the hot path of every eval-style request.
	p := &Process{Machine: m, Sprite: sp, Actor: actor}
	p.frameStore.parent = base
	p.rootFrame = &p.frameStore
	if spawnHook != nil {
		spawnHook(m, p, script)
	}
	if p.exec == nil {
		p.context = &Context{Expr: script, Frame: p.rootFrame}
	}
	m.procs = append(m.procs, p)
	return p
}

// SpawnExpr starts a process evaluating an arbitrary expression node (used
// by the REPL-style entry points and by worker-driver blocks).
func (m *Machine) SpawnExpr(sp *blocks.Sprite, actor *stage.Actor, expr any, frame *Frame) *Process {
	if frame == nil {
		frame = m.globalFrame
	}
	p := &Process{Machine: m, Sprite: sp, Actor: actor}
	p.frameStore.parent = frame
	p.rootFrame = &p.frameStore
	p.context = &Context{Expr: expr, Frame: p.rootFrame}
	m.procs = append(m.procs, p)
	return p
}

// GreenFlag fires the "when green flag clicked" hats of every sprite and
// returns the started processes.
func (m *Machine) GreenFlag() []*Process {
	started := make([]*Process, len(m.plan.greenFlag))
	for i, hs := range m.plan.greenFlag {
		started[i] = m.SpawnScript(hs.sprite, m.Stage.Actor(hs.sprite.Name), hs.script)
	}
	return started
}

// PressKey fires "when <key> key pressed" hats.
func (m *Machine) PressKey(key string) []*Process {
	var started []*Process
	for _, sp := range m.Project.Sprites {
		actor := m.Stage.Actor(sp.Name)
		for _, hs := range sp.Scripts {
			if hs.Hat == blocks.HatKeyPress && hs.Arg == key {
				started = append(started, m.SpawnScript(sp, actor, hs.Script))
			}
		}
	}
	return started
}

// StartBroadcast fires "when I receive <msg>" hats across all sprites and
// returns the started processes (doBroadcastAndWait polls them).
func (m *Machine) StartBroadcast(msg string) []*Process {
	var started []*Process
	for _, sp := range m.Project.Sprites {
		actor := m.Stage.Actor(sp.Name)
		for _, hs := range sp.Scripts {
			if hs.Hat == blocks.HatBroadcast && hs.Arg == msg {
				started = append(started, m.SpawnScript(sp, actor, hs.Script))
			}
		}
	}
	return started
}

// CreateClone clones the actor on stage and fires the sprite's "when I
// start as a clone" hats on behalf of the clone. It returns the clone.
func (m *Machine) CreateClone(parent *stage.Actor) *stage.Actor {
	clone := m.Stage.Clone(parent)
	sp := m.spriteOf(parent)
	if sp == nil && parent.Parent != nil {
		sp = m.spriteOf(parent.Parent)
	}
	if sp != nil {
		m.bindClone(clone, sp)
		for _, hs := range sp.Scripts {
			if hs.Hat == blocks.HatCloneStart {
				m.SpawnScript(sp, clone, hs.Script)
			}
		}
	}
	return clone
}

// CloneSilent clones the actor on stage without firing "when I start as a
// clone" hats. The parallelForEach block spawns its worker clones this way:
// they run the block's nested script, not the sprite's clone hats (§3.3
// uses "Snap!'s intrinsic cloning feature in a novel way").
func (m *Machine) CloneSilent(parent *stage.Actor) *stage.Actor {
	clone := m.Stage.Clone(parent)
	if sp := m.spriteOf(parent); sp != nil {
		m.bindClone(clone, sp)
	}
	return clone
}

// RemoveClone deletes a clone actor and stops every process running on its
// behalf.
func (m *Machine) RemoveClone(a *stage.Actor) {
	if a == nil || !a.IsClone() {
		return
	}
	for _, p := range m.procs {
		if p.Actor == a {
			p.Stop()
		}
	}
	delete(m.cloneSprite, a)
	m.Stage.Remove(a)
}

// StopAll stops every process (the red stop button).
func (m *Machine) StopAll() {
	for _, p := range m.procs {
		p.Stop()
	}
}

// Processes returns the live process list (snapshot).
func (m *Machine) Processes() []*Process {
	out := make([]*Process, 0, len(m.procs))
	for _, p := range m.procs {
		if !p.Done() {
			out = append(out, p)
		}
	}
	return out
}

// Round reports how many scheduler rounds have run.
func (m *Machine) Round() int64 { return m.round }

// Steps reports the cumulative evaluator ops executed across all processes
// and rounds — the unit RunLimits.MaxSteps budgets.
func (m *Machine) Steps() int64 { return m.steps }

// Errors returns the errors of processes that died, in death order.
func (m *Machine) Errors() []error { return m.errs }

// Step runs one scheduler round: every live process gets one time slice,
// then the virtual clock ticks once if any process consumed a wait
// timestep this round (concurrently waiting processes share the timestep —
// that sharing is exactly why the parallel concession stand pours three
// drinks in three timesteps). It reports whether live processes remain.
//
// Step iterates the process list in place rather than snapshotting it: a
// loop yields once per round, so programs run thousands of rounds, and the
// per-round snapshot slice was once the single largest allocation source
// in the whole system (97% of allocs on the E2 parallelMap bench, whose
// poller then spun through rounds). Processes
// spawned during the round (clones, broadcasts) are appended behind the
// iteration bound and first run next round, exactly as with the snapshot.
//
// Step also records which processes parked on a parallel job (ParkOn);
// RunContext reads that to sleep instead of spinning the next round.
func (m *Machine) Step() bool {
	m.compact()
	if len(m.procs) == 0 {
		return false
	}
	m.round++
	anyWait, anyParked := false, false
	for i, bound := 0, len(m.procs); i < bound; i++ {
		p := m.procs[i]
		if p.Done() {
			continue
		}
		p.consumedWait = false
		p.parked = nil
		m.steps += int64(p.RunStep(m.SliceOps))
		anyWait = anyWait || p.consumedWait
		anyParked = anyParked || p.parked != nil
		if p.Done() {
			m.reap(p)
		}
	}
	if anyWait {
		m.Stage.Clock.Tick()
	}
	m.compact()
	// Every live process ran this round (parked was cleared before its
	// slice) or was spawned during it (parked is nil), so a process
	// waits only if it parked in this very round.
	m.waitOn = m.waitOn[:0]
	if anyParked && !anyWait {
		for _, p := range m.procs {
			if p.parked == nil {
				m.waitOn = m.waitOn[:0]
				break
			}
			m.waitOn = append(m.waitOn, p.parked)
		}
	}
	m.pollers = anyParked && len(m.waitOn) == 0
	return len(m.procs) > 0
}

// sleep blocks until one of the jobs the parked processes wait on
// resolves or ctxDone closes.
func (m *Machine) sleep(ctxDone <-chan struct{}) {
	if len(m.waitOn) == 1 {
		select {
		case <-m.waitOn[0]:
		case <-ctxDone:
		}
		return
	}
	cases := make([]reflect.SelectCase, 0, len(m.waitOn)+1)
	for _, ch := range append(m.waitOn, ctxDone) {
		if ch != nil {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)})
		}
	}
	reflect.Select(cases)
}

func (m *Machine) reap(p *Process) {
	if p.err != nil {
		m.errs = append(m.errs, p.err)
	}
	if p.OnDone != nil {
		cb := p.OnDone
		p.OnDone = nil
		cb(p)
	}
}

func (m *Machine) compact() {
	live := m.procs[:0]
	for _, p := range m.procs {
		if !p.Done() {
			live = append(live, p)
		}
	}
	m.procs = live
}

// ErrRoundLimit reports that Run hit its round cap with processes alive.
var ErrRoundLimit = errors.New("machine round limit reached with live processes")

// ErrStepLimit reports that RunContext exhausted its evaluator-op budget
// with processes alive — the hard ceiling a hosted session runs under.
var ErrStepLimit = errors.New("machine step budget exhausted with live processes")

// RunLimits bounds one RunContext call. The zero value reproduces the
// legacy Run defaults: a generous round cap and no step budget.
type RunLimits struct {
	// MaxRounds caps scheduler rounds; 0 means a generous default (1M).
	MaxRounds int
	// MaxSteps caps cumulative evaluator ops across all processes; 0 means
	// unlimited. The cap is enforced between rounds, so a run may overshoot
	// by at most one round's worth of ops (live processes × remaining
	// slice).
	MaxSteps int64
}

// Run steps the machine until no processes remain or maxRounds elapse
// (0 means a generous default). It returns the first process error, the
// round-limit error, or nil.
func (m *Machine) Run(maxRounds int) error {
	return m.RunContext(context.Background(), RunLimits{MaxRounds: maxRounds})
}

// RunContext is Run under governance: it additionally stops — killing every
// live process and canceling their in-flight parallel jobs — when the
// context is done (wall-clock deadlines, session cancellation) or when the
// cumulative step budget runs out. The returned error wraps ctx's cause or
// ErrStepLimit respectively, so callers can classify the outcome with
// errors.Is.
func (m *Machine) RunContext(ctx context.Context, lim RunLimits) error {
	maxRounds := lim.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1_000_000
	}
	done := ctx.Done()
	baseSlice := m.SliceOps
	defer func() { m.SliceOps = baseSlice }()
	for i := 0; i < maxRounds; i++ {
		if done != nil {
			select {
			case <-done:
				m.Kill()
				return fmt.Errorf("machine run canceled after %d rounds, %d steps: %w",
					m.round, m.steps, context.Cause(ctx))
			default:
			}
		}
		if lim.MaxSteps > 0 {
			rem := lim.MaxSteps - m.steps
			if rem <= 0 {
				m.Kill()
				return fmt.Errorf("%w (after %d rounds, %d steps)", ErrStepLimit, m.round, m.steps)
			}
			// Clamp the per-process slice so one round overshoots the
			// budget by as little as possible.
			if rem < int64(baseSlice) {
				m.SliceOps = int(rem)
			} else {
				m.SliceOps = baseSlice
			}
		}
		if !m.Step() {
			if len(m.errs) > 0 {
				return m.errs[0]
			}
			return nil
		}
		switch {
		case len(m.waitOn) > 0:
			// Every live process is waiting on a worker job: the next
			// round could only poll again. Sleep until a job resolves
			// (or the session dies), like the browser's event loop
			// idling until the next frame. The wait costs no rounds
			// and no steps, so budgets stop depending on host speed.
			m.sleep(done)
		case m.pollers:
			// A poller shares the round with running processes, which
			// keep this goroutine busy without blocking; on a loaded
			// (or single-CPU) runtime that starves the very workers
			// the poller waits on until async preemption kicks in
			// ~10ms later. Hand them the thread once per round.
			runtime.Gosched()
		}
	}
	if len(m.errs) > 0 {
		return m.errs[0]
	}
	return fmt.Errorf("%w (after %d rounds)", ErrRoundLimit, maxRounds)
}

// Kill stops every live process AND fires its completion hooks immediately.
// Unlike StopAll — which only flags the processes and relies on a further
// Step to reap them — Kill is what a dying session calls: the OnDone hooks
// are how in-flight parallel jobs get canceled (core's cancelOnDeath), so
// they must run even though the scheduler will never turn again.
func (m *Machine) Kill() {
	for _, p := range m.procs {
		if p.Done() {
			continue // already reaped by the Step that saw it finish
		}
		p.Stop()
		m.reap(p)
	}
	m.compact()
}

// RunScript is the convenience entry point used by tests and examples: it
// runs a single script to completion on a scratch sprite and returns the
// value of the script's last doReport (or Nothing).
func (m *Machine) RunScript(script *blocks.Script) (value.Value, error) {
	// A bare sprite, no frame registration: the scratch sprite declares no
	// variables (lookups fall through to the global frame either way, and
	// custom-block environments fall back to GlobalFrame), and no maps
	// are paid on a path that exists to run one script and be thrown away.
	if m.scratchSp == nil {
		m.scratchSp = &blocks.Sprite{Name: "__main__"}
		m.scratchActor = m.Stage.AddActor(m.scratchSp.Name, 0, 0)
	} else {
		m.scratchActor.Rehome(0, 0)
	}
	p := m.SpawnScript(m.scratchSp, m.scratchActor, script)
	if err := m.Run(0); err != nil {
		return nil, err
	}
	return p.Result(), nil
}

// EvalReporter evaluates a single reporter block to a value — dropping a
// reporter on the scripting area and clicking it.
func (m *Machine) EvalReporter(b *blocks.Block) (value.Value, error) {
	// The report wrapper is machine-owned and reused across calls: the
	// program caches key lowered bytecode by content, never by the
	// wrapper's identity, so splicing a new reporter into the same script
	// shell is invisible to them and saves three allocations per request.
	if m.evalWrap == nil {
		m.evalWrap = blocks.NewScript(blocks.Report(b))
	} else {
		m.evalWrap.Blocks[0].Inputs[0] = b
	}
	return m.RunScript(m.evalWrap)
}
