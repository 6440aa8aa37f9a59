package interp

import (
	"repro/internal/blocks"
	"repro/internal/value"
)

// This file is the seam between the tree-walking evaluator and an external
// bytecode executor (internal/vm). A process normally runs its context
// stack through evaluateContext; a process with an installed Exec instead
// delegates its whole time slice to the executor, which drives the same
// Process — same frames, same yield flag, same warp counter, same stop and
// error states — so machine-level scheduling and governance cannot tell
// the two apart. The executor splices individual un-lowerable subtrees
// back through the context stack (BeginSplice/StepSplice), which is how
// coverage grows incrementally while semantics stay exact.

// Exec is an external executor driving a Process. Step runs until the
// process yields, finishes, errors, or maxOps operations elapse, and
// returns the operations consumed (the unit machine step budgets count).
// Done reports whether the executed program has completed.
type Exec interface {
	Step(p *Process, maxOps int) int
	Done() bool
}

// spawnHook, when set, is consulted for every machine-owned script process
// right after it is created; the hook may install an Exec on it. Installed
// by internal/vm; nil means every process tree-walks.
var spawnHook func(m *Machine, p *Process, script *blocks.Script)

// SetSpawnHook installs the process-creation hook. Passing nil removes it.
// Not safe to call concurrently with running machines; intended for
// package init and tests.
func SetSpawnHook(h func(m *Machine, p *Process, script *blocks.Script)) { spawnHook = h }

// InstallExec attaches an executor to a freshly spawned process and
// retires its initial tree context: from now on RunStep delegates to e.
func (p *Process) InstallExec(e Exec) {
	p.exec = e
	p.context = nil
}

// DetachExec removes a finished executor so its resources can be
// recycled. The process must already be halted: with no executor and no
// context it keeps reporting Done.
func (p *Process) DetachExec() { p.exec = nil }

// Stopped reports whether the process has been stopped (Stop/Kill).
func (p *Process) Stopped() bool { return p.stopped }

// Fail kills the process with err, exactly as an evaluator error would.
func (p *Process) Fail(err error) { p.fail(err) }

// ReportResult records the process result (an executor's doReport).
func (p *Process) ReportResult(v value.Value) { p.result = v }

// RequestYield sets the cooperative yield flag, the executor-side
// equivalent of evaluating a doYield marker.
func (p *Process) RequestYield() { p.readyToYield = true }

// YieldPending reports whether a yield has been requested this slice.
func (p *Process) YieldPending() bool { return p.readyToYield }

// ClearYield consumes a pending yield without yielding — what the
// tree-walker does at the top of its loop while warped.
func (p *Process) ClearYield() { p.readyToYield = false }

// Reify builds the closure value a RingNode evaluates to, capturing f.
func (p *Process) Reify(r blocks.RingNode, f *Frame) *blocks.Ring { return p.reify(r, f) }

// spliceRoot is the pseudo-context an executor plants under a spliced
// subtree: when the subtree's value lands in its Inputs the splice is
// complete. It is to the executor what collector is to detached calls.
type spliceRoot struct{}

// BeginSplice pushes node for tree evaluation in frame f, fenced by a
// spliceRoot. The executor then drives it with StepSplice until done.
func (p *Process) BeginSplice(node any, f *Frame) {
	p.pushContext(spliceRoot{}, f)
	p.pushContext(node, f)
}

// StepSplice advances a spliced subtree by at most maxOps evaluator
// operations (0 = unlimited). It returns the subtree's value, the ops
// consumed, whether the splice is finished, and whether the subtree
// escaped the fence (a doReport unwound past it or the process died — the
// process result/error, not v, then carries the outcome). A false done
// with a pending yield means the process must yield; a false done without
// one means the op budget ran out.
func (p *Process) StepSplice(maxOps int) (v value.Value, ops int, done, escaped bool) {
	for {
		if p.stopped || p.err != nil {
			return nil, ops, true, true
		}
		if p.context == nil {
			return nil, ops, true, true
		}
		if _, isRoot := p.context.Expr.(spliceRoot); isRoot {
			v = value.Nothing{}
			if len(p.context.Inputs) > 0 {
				v = p.context.Inputs[0]
			}
			p.popContext()
			return v, ops, true, false
		}
		if p.readyToYield && p.warp == 0 {
			return nil, ops, false, false
		}
		p.readyToYield = false
		if err := p.evaluateContext(); err != nil {
			p.fail(err)
			return nil, ops + 1, true, true
		}
		ops++
		if maxOps > 0 && ops >= maxOps {
			return nil, ops, false, false
		}
	}
}
