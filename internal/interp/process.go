package interp

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/blocks"
	"repro/internal/stage"
	"repro/internal/value"
)

// yieldMarker is the "doYield" pseudo-expression of Listing 2: evaluating
// it sets the process's readyToYield flag, handing the thread back to the
// scheduler. ("The pushContext('doYield') instructs the environment to
// allow something else to run.")
type yieldMarker struct{}

// Context is one stack frame of the interpreter: the expression being
// evaluated, the inputs evaluated so far, and the lexical frame. Primitives
// that need to survive across yields stash scratch values in Inputs beyond
// their declared arity, exactly as Listing 2 stores the Parallel job in
// this.context.inputs[3].
type Context struct {
	Parent *Context
	// Expr is the expression under evaluation: *blocks.Block,
	// *blocks.Script, a slot Node (Literal, VarGet, EmptySlot, RingNode,
	// ScriptNode), or yieldMarker.
	Expr any
	// PC indexes the next block for *blocks.Script expressions.
	PC int
	// Inputs collects evaluated argument values, then primitive scratch.
	Inputs []value.Value
	// Frame is the lexical scope for this context.
	Frame *Frame
	// ProcBoundary marks contexts that doReport unwinds to: the calling
	// block of a custom block or command-ring invocation.
	ProcBoundary bool
}

// Control is a primitive's verdict about its context.
type Control int

// Primitive control outcomes.
const (
	// Done pops the context and returns the primitive's value to the
	// parent context.
	Done Control = iota
	// Again leaves the context in place (the primitive pushed children
	// and wants to be re-entered when they finish — the Listing 2 poll
	// pattern, and every loop).
	Again
	// Replaced means the primitive already restructured the stack
	// (popped itself, unwound, ...); the evaluator must not touch it.
	Replaced
)

// Primitive implements one opcode. It is called once all declared inputs
// are evaluated, and re-called each time control returns to its context
// while it keeps answering Again.
type Primitive func(p *Process, ctx *Context) (value.Value, Control, error)

var primitives = map[string]Primitive{}

// RegisterPrimitive installs the implementation of an opcode. Packages that
// extend the language (package core registers the paper's parallel blocks)
// call this from init.
func RegisterPrimitive(op string, fn Primitive) {
	if _, dup := primitives[op]; dup {
		panic("interp: duplicate primitive " + op)
	}
	primitives[op] = fn
}

// HasPrimitive reports whether an opcode is implemented.
func HasPrimitive(op string) bool {
	_, ok := primitives[op]
	return ok
}

// Process is one running script: Snap!'s unit of concurrency. The thread
// manager steps every live process each round; a process runs until it
// yields, finishes, errors, or exhausts its time slice.
type Process struct {
	// Machine is the owning scheduler; nil for detached pure evaluation
	// (a function shipped to a Web Worker has no machine, no stage, no
	// DOM — stage primitives error in that case, as in the browser).
	Machine *Machine
	// Sprite is the defining sprite (for custom-block lookup); may be nil.
	Sprite *blocks.Sprite
	// Actor is the stage actor this process animates; may be nil.
	Actor *stage.Actor

	context      *Context
	freeCtx      *Context // recycled contexts (single-threaded freelist)
	exec         Exec     // non-nil: a bytecode executor drives this process
	trace        func(*Process, *blocks.Block)
	rootFrame    *Frame
	result       value.Value
	err          error
	stopped      bool
	readyToYield bool
	warp         int
	consumedWait bool // set when a doWait tick was consumed this step
	// parked is the done channel of the parallel job this process
	// yielded waiting on during its current slice (ParkOn); nil if none.
	parked <-chan struct{}

	// rng is the process-local random stream of a detached (worker)
	// process; see detachedRand. Machine-owned processes use the
	// machine's stream instead.
	rng *rand.Rand

	// OnDone, when set, runs as soon as the process completes or dies.
	OnDone func(*Process)

	// frameStore is the inline storage behind rootFrame for processes
	// built on the spawn fast path: one fewer allocation per spawn, and
	// anything that captured the root frame (a reified ring, a spliced
	// closure) keeps the whole Process alive with it, which it already
	// did via the frame's parent chain.
	frameStore Frame
}

// NewProcess builds a process that will run expr (a *blocks.Script or any
// slot Node) in a child of base frame.
func NewProcess(m *Machine, sprite *blocks.Sprite, actor *stage.Actor, expr any, base *Frame) *Process {
	f := NewFrame(base)
	p := &Process{Machine: m, Sprite: sprite, Actor: actor, rootFrame: f}
	p.context = &Context{Expr: expr, Frame: f}
	return p
}

// Done reports whether the process has finished (normally or not).
func (p *Process) Done() bool {
	if p.stopped || p.err != nil {
		return true
	}
	if p.exec != nil {
		return p.exec.Done()
	}
	return p.context == nil
}

// Err returns the error that killed the process, if any.
func (p *Process) Err() error { return p.err }

// Result returns the value the process's top-level expression reported.
func (p *Process) Result() value.Value {
	if p.result == nil {
		return value.Nothing{}
	}
	return p.result
}

// Stop halts the process at the next opportunity.
func (p *Process) Stop() { p.stopped = true }

// RootFrame exposes the process-local scope (script variables live here).
func (p *Process) RootFrame() *Frame { return p.rootFrame }

// fail kills the process with an error.
func (p *Process) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.context = nil
}

// pushContext pushes a child context evaluating expr in frame f. Contexts
// are recycled through a per-process freelist: the interpreter allocates
// one context per block evaluation, so recycling removes the dominant
// allocation of the evaluator loop (measured 2.6× fewer allocations and
// ~40% less time on the counting-loop benchmark).
func (p *Process) pushContext(expr any, f *Frame) {
	ctx := p.freeCtx
	if ctx == nil {
		ctx = &Context{}
	} else {
		p.freeCtx = ctx.Parent
	}
	ctx.Parent = p.context
	ctx.Expr = expr
	ctx.PC = 0
	ctx.Inputs = ctx.Inputs[:0]
	ctx.Frame = f
	ctx.ProcBoundary = false
	p.context = ctx
}

// recycle returns a popped context to the freelist. Contexts skipped by a
// non-local unwind are simply left to the garbage collector.
func (p *Process) recycle(ctx *Context) {
	ctx.Expr = nil
	ctx.Frame = nil
	for i := range ctx.Inputs {
		ctx.Inputs[i] = nil
	}
	ctx.Inputs = ctx.Inputs[:0]
	ctx.Parent = p.freeCtx
	p.freeCtx = ctx
}

// PushYield pushes a doYield marker, Listing 2's
// this.pushContext('doYield').
func (p *Process) PushYield() { p.pushContext(yieldMarker{}, p.context.Frame) }

// PushBody pushes a command closure (script ring) for execution; used by
// control primitives for their C-slots.
func (p *Process) PushBody(body value.Value) error {
	return p.PushBodyInFrame(body, nil)
}

// PushBodyInFrame pushes a command closure using override as the lexical
// parent instead of the closure's captured environment (loop upvars).
func (p *Process) PushBodyInFrame(body value.Value, override *Frame) error {
	if value.IsNothing(body) {
		return nil // an empty C-slot is a no-op
	}
	ring, ok := body.(*blocks.Ring)
	if !ok {
		return fmt.Errorf("expecting a script but getting a %s", body.Kind())
	}
	f := override
	if f == nil {
		if env, ok := ring.Env.(*Frame); ok {
			f = env
		} else {
			f = p.rootFrame
		}
	}
	switch b := ring.Body.(type) {
	case *blocks.Script:
		p.pushContext(b, NewFrame(f))
	case blocks.Node:
		p.pushContext(b, NewFrame(f))
	default:
		return errors.New("empty ring")
	}
	return nil
}

// popContext pops the top context without producing a value.
func (p *Process) popContext() {
	if p.context != nil {
		ctx := p.context
		p.context = ctx.Parent
		p.recycle(ctx)
	}
}

// returnValue pops the top context and delivers v to its parent — Snap!'s
// returnValueToParentContext. Script contexts discard command results; the
// process root stores the value as the process result.
func (p *Process) returnValue(v value.Value) {
	ctx := p.context
	p.context = ctx.Parent
	p.recycle(ctx)
	if p.context == nil {
		p.result = v
		return
	}
	if _, isScript := p.context.Expr.(*blocks.Script); isScript {
		return // commands in a script report nothing upward
	}
	p.context.Inputs = append(p.context.Inputs, v)
}

// UnwindToProcBoundary implements doReport: pop contexts until the nearest
// procedure-call boundary, deliver v there, and pop it too. Reports true
// when a boundary was found; false means the report escaped to the top (the
// whole process reports v and ends).
func (p *Process) UnwindToProcBoundary(v value.Value) bool {
	for c := p.context; c != nil; c = c.Parent {
		if c.ProcBoundary {
			p.context = c
			p.returnValue(v)
			return true
		}
	}
	p.result = v
	p.context = nil
	return false
}

// Warped reports whether the process is inside a warp block (no implicit
// yields).
func (p *Process) Warped() bool { return p.warp > 0 }

// EnterWarp and ExitWarp bracket warped execution.
func (p *Process) EnterWarp() { p.warp++ }

// ExitWarp leaves one level of warp.
func (p *Process) ExitWarp() {
	if p.warp > 0 {
		p.warp--
	}
}

// MarkWaitConsumed records that the process spent a virtual timestep this
// round (a doWait tick); the machine advances the stage clock once per
// round in which any process did so.
func (p *Process) MarkWaitConsumed() { p.consumedWait = true }

// ParkOn records that the process is about to yield waiting for a
// parallel job whose done channel is done. The poll-and-yield structure of
// Listing 2 stays: the process still re-polls next round. But when every
// live process of a round parked, the machine sleeps until one of those
// jobs resolves instead of spinning rounds (see Machine.RunContext).
func (p *Process) ParkOn(done <-chan struct{}) { p.parked = done }

// RunStep runs the process until it yields, finishes, or has evaluated
// maxOps contexts (the time slice of §2: "each process executes for a
// short amount of time called a time slice before yielding to the next
// process"). Warped processes ignore yields but still honor the op budget
// as a runaway guard. It returns the number of evaluator ops consumed, the
// accounting unit behind machine-level step budgets.
func (p *Process) RunStep(maxOps int) int {
	p.readyToYield = false
	// Resolve the trace hook once per slice: the evaluator loop then pays
	// a single nil check per block instead of chasing Machine.TraceBlock
	// through two pointers on every application.
	p.trace = nil
	if p.Machine != nil {
		p.trace = p.Machine.TraceBlock
	}
	if p.exec != nil {
		return p.exec.Step(p, maxOps)
	}
	ops := 0
	for p.context != nil && !p.stopped {
		if p.readyToYield && p.warp == 0 {
			return ops
		}
		p.readyToYield = false
		if err := p.evaluateContext(); err != nil {
			p.fail(err)
			return ops
		}
		ops++
		if maxOps > 0 && ops >= maxOps {
			return ops
		}
	}
	return ops
}

// evaluateContext performs one evaluation step on the top context.
func (p *Process) evaluateContext() error {
	ctx := p.context
	switch expr := ctx.Expr.(type) {
	case yieldMarker:
		p.readyToYield = true
		p.popContext()
		return nil

	case collector:
		if len(ctx.Inputs) > 0 {
			p.result = ctx.Inputs[0]
		}
		p.popContext()
		return nil

	case *blocks.Script:
		if expr == nil || ctx.PC >= len(expr.Blocks) {
			p.returnValue(value.Nothing{})
			return nil
		}
		next := expr.Blocks[ctx.PC]
		ctx.PC++
		p.pushContext(next, ctx.Frame)
		return nil

	case blocks.Literal:
		v := expr.Val
		if v == nil {
			v = value.Nothing{}
		} else if l, isList := v.(*value.List); isList {
			// Container literals (XML projects can embed <list> values
			// in slots) evaluate to a fresh copy: the AST may be shared
			// across machines by the program cache, and even within one
			// machine a script mutating its own literal must not see the
			// mutation on re-entry. Scalar literals — the common case —
			// stay on the no-alloc path above.
			v = l.Clone()
		}
		p.returnValue(v)
		return nil

	case blocks.EmptySlot:
		p.returnValue(ctx.Frame.TakeImplicit())
		return nil

	case blocks.VarGet:
		v, err := ctx.Frame.Get(expr.Name)
		if err != nil {
			return err
		}
		p.returnValue(v)
		return nil

	case blocks.RingNode:
		p.returnValue(p.reify(expr, ctx.Frame))
		return nil

	case blocks.ScriptNode:
		p.returnValue(&blocks.Ring{Body: expr.Script, Env: ctx.Frame})
		return nil

	case *blocks.Block:
		return p.evaluateBlock(ctx, expr)

	default:
		return fmt.Errorf("cannot evaluate %T", ctx.Expr)
	}
}

// reify turns a ring node into a closure value capturing the frame.
func (p *Process) reify(r blocks.RingNode, f *Frame) *blocks.Ring {
	recv := ""
	if p.Actor != nil {
		recv = p.Actor.Name
	}
	return &blocks.Ring{Body: r.Body, Params: r.Params, Env: f, Receiver: recv}
}

// evaluateBlock evaluates the next unevaluated input of a block, or applies
// its primitive once all declared inputs are present.
func (p *Process) evaluateBlock(ctx *Context, b *blocks.Block) error {
	if len(ctx.Inputs) < len(b.Inputs) {
		in := b.Input(len(ctx.Inputs))
		switch n := in.(type) {
		case *blocks.Block:
			p.pushContext(n, ctx.Frame)
		default:
			p.pushContext(n, ctx.Frame)
		}
		return nil
	}
	prim, ok := primitives[b.Op]
	if !ok {
		return fmt.Errorf("missing implementation for block %q", b.Op)
	}
	if p.trace != nil {
		p.trace(p, b)
	}
	v, control, err := prim(p, ctx)
	if err != nil {
		return fmt.Errorf("%s: %w", b.Op, err)
	}
	switch control {
	case Done:
		if v == nil {
			v = value.Nothing{}
		}
		p.returnValue(v)
	case Again, Replaced:
		// the primitive manages its own stack
	}
	return nil
}

// CallRing invokes a reporter or command ring with arguments by pushing the
// appropriate contexts onto this process; the result is delivered to the
// current top context's Inputs (the caller, a primitive, re-reads it as
// scratch). Used by evaluate/doRun and the higher-order list blocks.
func (p *Process) CallRing(ring *blocks.Ring, args []value.Value) error {
	callFrame := NewFrame(ringEnv(ring, p))
	if len(ring.Params) > 0 {
		for i, name := range ring.Params {
			if i < len(args) {
				callFrame.Declare(name, args[i])
			} else {
				callFrame.Declare(name, value.Nothing{})
			}
		}
	} else {
		callFrame.BindImplicits(args)
	}
	switch body := ring.Body.(type) {
	case *blocks.Script:
		p.context.ProcBoundary = true
		p.pushContext(body, callFrame)
	case blocks.Node:
		p.pushContext(body, callFrame)
	default:
		return errors.New("cannot call an empty ring")
	}
	return nil
}

func ringEnv(ring *blocks.Ring, p *Process) *Frame {
	if env, ok := ring.Env.(*Frame); ok {
		return env
	}
	return p.rootFrame
}

// collector is the root pseudo-expression of a detached evaluation: it
// receives the called ring's value and stores it as the process result.
type collector struct{}

// StepBudget is the default op budget handed to detached evaluation.
const StepBudget = 10000

// ErrEvalBudget reports a runaway detached evaluation.
var ErrEvalBudget = errors.New("function evaluation exceeded its budget (infinite loop?)")

// Caller is a reusable detached evaluator: one Web-Worker-engine stand-in
// that can run many ring calls back to back on the same Process, keeping
// the context freelist, the root frame, and the argument buffer warm
// between calls. A fresh Process per element was the dominant cost of the
// interpreter tier at the worker boundary; a chunk of elements now shares
// one Caller.
//
// A Caller is not safe for concurrent use; each worker goroutine takes its
// own (GetCaller/Release).
type Caller struct {
	p      *Process
	argbuf []value.Value
}

// NewCaller builds a detached evaluator (no machine, no sprite, no stage —
// the execution context a function shipped to a Web Worker sees).
func NewCaller() *Caller {
	return &Caller{p: &Process{rootFrame: NewFrame(nil)}}
}

// Call evaluates ring(args) to completion, like CallFunction, but reusing
// this Caller's Process. Unlike CallFunction it does NOT clone args: the
// caller is expected to pass values that are already isolated from any
// running machine (e.g. boundary-cloned by the worker pool). maxSteps <= 0
// means StepBudget.
func (c *Caller) Call(ring *blocks.Ring, args []value.Value, maxSteps int) (value.Value, error) {
	if maxSteps <= 0 {
		maxSteps = StepBudget
	}
	p := c.p
	p.result = nil
	p.err = nil
	p.stopped = false
	p.readyToYield = false
	p.warp = 0
	p.consumedWait = false
	p.context = nil
	p.pushContext(collector{}, p.rootFrame)
	if err := p.CallRing(ring, args); err != nil {
		p.context = nil
		return nil, err
	}
	for steps := 0; p.context != nil; {
		steps += p.RunStep(256)
		if p.err != nil {
			return nil, p.err
		}
		if steps > maxSteps && p.context != nil {
			// Abandon the stack; the contexts above the freelist are
			// left to the garbage collector.
			p.context = nil
			return nil, ErrEvalBudget
		}
	}
	return p.Result(), nil
}

// callerPool recycles Callers across detached evaluations so a steady
// stream of worker calls reuses warmed Processes instead of allocating
// fresh ones.
var callerPool = sync.Pool{New: func() any { return NewCaller() }}

// GetCaller takes a pooled Caller; return it with Release when done.
func GetCaller() *Caller { return callerPool.Get().(*Caller) }

// Release returns the Caller to the pool.
func (c *Caller) Release() { callerPool.Put(c) }

// CallFunction evaluates a ring with arguments to completion in a detached
// process with no machine, no sprite, and no stage: the execution context a
// function shipped to a Web Worker sees. Stage- or scheduler-dependent
// primitives fail in this context, exactly as DOM access fails inside a
// real Web Worker. The maxSteps budget guards against non-terminating
// functions; pass 0 for StepBudget.
func CallFunction(ring *blocks.Ring, args []value.Value, maxSteps int) (value.Value, error) {
	c := GetCaller()
	defer c.Release()
	// A detached call must not share the ring's captured frames with a
	// concurrently running machine; workers are share-nothing. Cloning
	// the arguments is the postMessage discipline; the captured
	// environment is reached read-only via the frame chain.
	callArgs := c.argbuf[:0]
	for _, a := range args {
		callArgs = append(callArgs, value.CloneValue(a))
	}
	c.argbuf = callArgs
	return c.Call(ring, callArgs, maxSteps)
}
