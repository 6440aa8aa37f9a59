// Package vm is the flat bytecode machine of the execution engine: whole
// scripts lower to a linear op array executed over a value stack with an
// explicit control stack and real interpreter frames, in the style of
// gno's machine.go — preallocated slices and a dispatch loop instead of
// one heap-allocated context per AST node per evaluation.
//
// The machine deliberately drives the same interp.Process the tree-walker
// would: frames are interp.Frames, yields set the same cooperative flag,
// stops and errors land in the same fields, and every construct the
// lowering pass cannot express splices back through the tree evaluator
// via a CallTree op (interp.BeginSplice/StepSplice). Scheduling,
// governance (deadlines, step budgets, Kill), and observable semantics —
// values AND error strings — are therefore identical by construction,
// and pinned by the differential + fuzz harnesses in this package.
package vm

import (
	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
)

// Code is a bytecode opcode.
type Code uint8

// The op catalog. Jump targets are absolute op indices in A. Ops that can
// fail carry the block selector they wrap their error with, matching the
// tree-walker's "%s: %w" convention exactly.
const (
	opInvalid Code = iota

	// Values.
	opConst     // push Consts[A]
	opConstList // push Consts[A].(*value.List).Clone() — container literals copy per evaluation
	opNothing   // push Nothing
	opPop       // drop the top of stack (a discarded statement value)
	opVarGet    // push frame.Get(Names[A]); the error is NOT wrapped (tree parity)
	opMakeRing  // push the reified closure of RingTemplates[A] capturing the current frame
	opMakeScrip // push &blocks.Ring{Body: Scripts[A], Env: frame} (a C-slot script value)
	opHofArg    // push the implicit argument: ctrl[A] is the hof scope, B the static cursor

	// Frames.
	opPushFrame // frame = NewFrame(frame)
	opPopFrame  // frame = saved parent

	// Variables.
	opDeclare   // pop B values; Declare(v.String(), Nothing) each, in evaluation order
	opSetVar    // pop v, pop name; frame.Set — wraps "doSetVar"
	opChangeVar // pop delta, pop name; numeric add — wraps "doChangeVar"

	// Control.
	opJump      // pc = A
	opJumpFalse // pop cond; !cond -> pc = A; ToBool error wraps Names[B]
	opJumpTrue  // pop cond; cond -> pc = A; ToBool error wraps Names[B]
	opYield     // request a cooperative yield (the loop top honors warp)
	opReport    // pop v; the process reports v and the program halts
	opStop      // doStopThis: stop the process
	opHalt      // end of script
	opEnterWarp // doWarp entry
	opExitWarp  // doWarp exit

	// Loops (control stack).
	opRepeatInit  // pop n ("doRepeat"); n<1 -> jump A, else push counter
	opRepeatNext  // decrement; continue -> jump A (loop head), else pop ctrl
	opWaitInit    // pop n ("doWait"); n<=0 -> jump A, else push remaining
	opWaitTick    // consume one wait timestep, yield; exhausted -> pop ctrl, jump A
	opForInit     // pop to, from, var name ("doFor"); push loop frame + ctrl
	opForNext     // bounds-check; exit -> pop ctrl+frame, jump A; else declare counter
	opForEachInit // pop list, var name ("doForEach"); push ctrl
	opForEachNext // exhausted -> pop ctrl, jump A; else push iter frame, declare item

	// Inlined sequential higher-order blocks.
	opMapInit     // pop list ("reportMap"); push ctrl with result accumulator
	opMapNext     // collect previous result; exhausted -> push out, jump A; else stage next arg
	opKeepInit    // pop list ("reportKeep")
	opKeepNext    // collect previous verdict; exhausted -> push out, jump A
	opCombineInit // pop list ("reportCombine"); empty -> push 0, jump A
	opCombineNext // fold previous result; exhausted -> push acc, jump A
	opHofParams   // push a call frame declaring Metas[B].params from ctrl[A]'s args

	// Table-driven eager operators.
	opPrim // pop B inputs, apply interp.PureOps[A]; commands push nothing

	// Fallback: evaluate Nodes[A] through the tree-walker in the current
	// frame; B==1 discards the value (statement position).
	opCallTree
)

// Op is one instruction.
type Op struct {
	Code Code
	A, B int32
}

// ringMeta carries the formal parameters of an inlined parameterized ring.
type ringMeta struct {
	params []string
}

// Program is a lowered script: immutable once built and shared freely
// across machines (the memo hands one instance to every session running a
// structurally identical script).
type Program struct {
	Ops           []Op
	Consts        []value.Value
	Names         []string
	Nodes         []blocks.Node     // opCallTree splice roots
	RingTemplates []blocks.RingNode // opMakeRing
	Scripts       []*blocks.Script  // opMakeScrip
	Metas         []ringMeta

	// NativeStmts counts statements lowered to bytecode; TreeStmts counts
	// statements spliced whole through the tree-walker. A program with no
	// native statements is not worth installing.
	NativeStmts int
	TreeStmts   int
}

// SwapBinaryOps builds a program mutator that rewrites every lowered
// operator op implementing selector `from` so it executes `to` instead — a
// deliberate, surgical VM bug for the stress engine's self-test (install
// with SetProgramMutator). ok is false unless both selectors are
// fixed-arity-2 reporters of the pure-primitive table.
func SwapBinaryOps(from, to string) (func(*Program), bool) {
	f, okf := interp.PureOpIndex(from)
	t, okt := interp.PureOpIndex(to)
	binary := func(i int) bool {
		o := &interp.PureOps[i]
		return !o.Variadic && !o.Cmd && o.Arity == 2
	}
	if !okf || !okt || !binary(f) || !binary(t) {
		return nil, false
	}
	return func(p *Program) {
		for i := range p.Ops {
			if p.Ops[i].Code == opPrim && p.Ops[i].A == int32(f) {
				p.Ops[i].A = int32(t)
			}
		}
	}, true
}
