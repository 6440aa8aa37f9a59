package vm

import (
	"errors"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
)

// errRefuse aborts lowering of the enclosing region. It never escapes the
// package: at statement level the lowerer rolls back and splices the whole
// statement through the tree-walker; inside an inlined higher-order body
// it propagates outward until the outermost affected hof becomes one
// consistent tree-spliced region (a partially inlined hof would give
// spliced subtrees the wrong implicit-argument environment).
var errRefuse = errors.New("vm: construct refused by the lowering pass")

// hofScope tracks one statically inlined higher-order call (map/keep/
// combine) while its ring body lowers. Parameterless rings bind empty
// slots by a static cursor mirroring Frame.TakeImplicit; parameterized
// rings get a real frame (opHofParams) and bind nothing implicitly.
type hofScope struct {
	ctrlIdx int32 // absolute control-stack index of the hof's entry
	params  bool  // ring declares formal parameters
	nargs   int   // arguments passed per call: map/keep 1, combine 2
	cursor  int32 // next implicit slot (parameterless scopes only)
}

type lowerer struct {
	p     *Program
	ctrlH int32 // static control-stack height at the current point
	hofs  []hofScope
}

// lowerMark is a rollback point: refusals truncate everything emitted
// since the mark, including implicit-cursor advances in enclosing scopes.
type lowerMark struct {
	ops, nodes, hofs     int
	ctrlH                int32
	native, tree         int
	consts, names, rings int
	scripts, metas       int
	cursors              []int32
}

func (l *lowerer) mark() lowerMark {
	m := lowerMark{
		ops: len(l.p.Ops), nodes: len(l.p.Nodes), hofs: len(l.hofs),
		ctrlH: l.ctrlH, native: l.p.NativeStmts, tree: l.p.TreeStmts,
		consts: len(l.p.Consts), names: len(l.p.Names),
		rings: len(l.p.RingTemplates), scripts: len(l.p.Scripts),
		metas: len(l.p.Metas),
	}
	for _, s := range l.hofs {
		m.cursors = append(m.cursors, s.cursor)
	}
	return m
}

func (l *lowerer) restore(m lowerMark) {
	l.p.Ops = l.p.Ops[:m.ops]
	l.p.Nodes = l.p.Nodes[:m.nodes]
	l.p.Consts = l.p.Consts[:m.consts]
	l.p.Names = l.p.Names[:m.names]
	l.p.RingTemplates = l.p.RingTemplates[:m.rings]
	l.p.Scripts = l.p.Scripts[:m.scripts]
	l.p.Metas = l.p.Metas[:m.metas]
	l.p.NativeStmts = m.native
	l.p.TreeStmts = m.tree
	l.hofs = l.hofs[:m.hofs]
	l.ctrlH = m.ctrlH
	for i := range l.hofs {
		l.hofs[i].cursor = m.cursors[i]
	}
}

func (l *lowerer) emit(op Op) int {
	l.p.Ops = append(l.p.Ops, op)
	return len(l.p.Ops) - 1
}

func (l *lowerer) here() int32 { return int32(len(l.p.Ops)) }

func (l *lowerer) patch(at int, target int32) { l.p.Ops[at].A = target }

func (l *lowerer) constIdx(v value.Value) int32 {
	l.p.Consts = append(l.p.Consts, v)
	return int32(len(l.p.Consts) - 1)
}

func (l *lowerer) nameIdx(s string) int32 {
	for i, n := range l.p.Names {
		if n == s {
			return int32(i)
		}
	}
	l.p.Names = append(l.p.Names, s)
	return int32(len(l.p.Names) - 1)
}

func (l *lowerer) inHof() bool { return len(l.hofs) > 0 }

func (l *lowerer) emitCallTree(n blocks.Node, discard bool) {
	l.p.Nodes = append(l.p.Nodes, n)
	b := int32(0)
	if discard {
		b = 1
	}
	l.emit(Op{Code: opCallTree, A: int32(len(l.p.Nodes) - 1), B: b})
}

// LowerScript compiles a whole script body to bytecode. It cannot fail:
// any statement the pass does not understand becomes a CallTree splice
// evaluated by the tree-walker in the current frame, so the resulting
// program is semantically exact regardless of coverage. NativeStmts==0
// means nothing lowered and the program is not worth installing.
func LowerScript(s *blocks.Script) *Program {
	l := &lowerer{p: &Program{}}
	if s != nil {
		for _, b := range s.Blocks {
			l.lowerStmt(b)
		}
	}
	l.emit(Op{Code: opHalt})
	if programMutator != nil {
		programMutator(l.p)
	}
	if enabledMetrics() {
		mLowerings.Inc()
	}
	return l.p
}

func (l *lowerer) lowerStmt(b *blocks.Block) {
	m := l.mark()
	if err := l.stmt(b); err != nil {
		l.restore(m)
		l.emitCallTree(b, true)
		l.p.TreeStmts++
		return
	}
	l.p.NativeStmts++
}

// needsFrame reports whether a C-slot body makes its per-iteration frame
// observable: only variable declarations do (reads and writes resolve
// through the parent chain identically with or without the extra frame).
func needsFrame(s *blocks.Script) bool {
	for _, b := range s.Blocks {
		if b != nil && b.Op == "doDeclareVariables" {
			return true
		}
	}
	return false
}

// scriptBody lowers the statements of a C-slot script, bracketing them
// with a real frame when the tree-walker's per-push NewFrame would be
// observable: the body declares variables, or a statement falls back to
// the tree (a spliced doDeclareVariables must land in the body frame,
// not leak into the enclosing scope).
func (l *lowerer) scriptBody(s *blocks.Script) {
	if s == nil || len(s.Blocks) == 0 {
		return
	}
	framed := needsFrame(s)
	m := l.mark()
	l.emitScriptBody(s, framed)
	if !framed && l.p.TreeStmts > m.tree {
		l.restore(m)
		l.emitScriptBody(s, true)
	}
}

func (l *lowerer) emitScriptBody(s *blocks.Script, framed bool) {
	if framed {
		l.emit(Op{Code: opPushFrame})
	}
	for _, b := range s.Blocks {
		l.lowerStmt(b)
	}
	if framed {
		l.emit(Op{Code: opPopFrame})
	}
}

// cSlot lowers the body input of a control block. requireRing mirrors the
// primitives that type-check their body before running (doFor/doForEach
// error on a non-ring body even before iterating): a body those would
// reject must fall back so the tree produces the exact error.
func (l *lowerer) cSlot(n blocks.Node, requireRing bool) error {
	switch e := n.(type) {
	case blocks.ScriptNode:
		l.scriptBody(e.Script)
		return nil
	case blocks.RingNode:
		switch body := e.Body.(type) {
		case *blocks.Script:
			l.scriptBody(body)
			return nil
		case nil:
			return errRefuse // tree: "empty ring"
		default:
			// A reporter-bodied command ring: the tree evaluates the
			// expression and discards its value.
			if blk, ok := body.(*blocks.Block); ok {
				l.lowerStmt(blk)
				return nil
			}
			if err := l.expr(body); err != nil {
				return err
			}
			l.emit(Op{Code: opPop})
			return nil
		}
	case blocks.EmptySlot:
		if requireRing {
			return errRefuse // tree: "... needs a script body"
		}
		return nil // Nothing body: a no-op C-slot
	case blocks.Literal:
		if e.Val == nil && !requireRing {
			return nil
		}
		return errRefuse // non-ring value: the tree errors
	default:
		return errRefuse // dynamic body (VarGet, nested block): splice whole stmt
	}
}

func (l *lowerer) stmt(b *blocks.Block) error {
	if b == nil {
		return errRefuse
	}
	switch b.Op {
	case "doDeclareVariables":
		if len(b.Inputs) == 0 {
			return nil
		}
		for i := range b.Inputs {
			if err := l.expr(b.Input(i)); err != nil {
				return err
			}
		}
		l.emit(Op{Code: opDeclare, B: int32(len(b.Inputs))})
		return nil

	case "doSetVar", "doChangeVar":
		if len(b.Inputs) != 2 {
			return errRefuse
		}
		if err := l.expr(b.Input(0)); err != nil {
			return err
		}
		if err := l.expr(b.Input(1)); err != nil {
			return err
		}
		code := opSetVar
		if b.Op == "doChangeVar" {
			code = opChangeVar
		}
		l.emit(Op{Code: code})
		return nil

	case "doIf":
		if len(b.Inputs) != 2 {
			return errRefuse
		}
		if err := l.expr(b.Input(0)); err != nil {
			return err
		}
		jf := l.emit(Op{Code: opJumpFalse, B: l.nameIdx("doIf")})
		if err := l.cSlot(b.Input(1), false); err != nil {
			return err
		}
		l.patch(jf, l.here())
		return nil

	case "doIfElse":
		if len(b.Inputs) != 3 {
			return errRefuse
		}
		if err := l.expr(b.Input(0)); err != nil {
			return err
		}
		jf := l.emit(Op{Code: opJumpFalse, B: l.nameIdx("doIfElse")})
		if err := l.cSlot(b.Input(1), false); err != nil {
			return err
		}
		jend := l.emit(Op{Code: opJump})
		l.patch(jf, l.here())
		if err := l.cSlot(b.Input(2), false); err != nil {
			return err
		}
		l.patch(jend, l.here())
		return nil

	case "doRepeat":
		if len(b.Inputs) != 2 {
			return errRefuse
		}
		if err := l.expr(b.Input(0)); err != nil {
			return err
		}
		init := l.emit(Op{Code: opRepeatInit})
		l.ctrlH++
		loop := l.here()
		if err := l.cSlot(b.Input(1), false); err != nil {
			return err
		}
		l.emit(Op{Code: opYield})
		l.emit(Op{Code: opRepeatNext, A: loop})
		l.ctrlH--
		l.patch(init, l.here())
		return nil

	case "doForever":
		if len(b.Inputs) != 1 {
			return errRefuse
		}
		loop := l.here()
		if err := l.cSlot(b.Input(0), false); err != nil {
			return err
		}
		l.emit(Op{Code: opYield})
		l.emit(Op{Code: opJump, A: loop})
		return nil

	case "doUntil":
		if len(b.Inputs) != 2 {
			return errRefuse
		}
		loop := l.here()
		if err := l.expr(b.Input(0)); err != nil {
			return err
		}
		jt := l.emit(Op{Code: opJumpTrue, B: l.nameIdx("doUntil")})
		if err := l.cSlot(b.Input(1), false); err != nil {
			return err
		}
		l.emit(Op{Code: opYield})
		l.emit(Op{Code: opJump, A: loop})
		l.patch(jt, l.here())
		return nil

	case "doFor":
		if len(b.Inputs) != 4 {
			return errRefuse
		}
		switch body := b.Input(3).(type) {
		case blocks.ScriptNode:
			// ok: evaluates to a ring
		case blocks.RingNode:
			if body.Body == nil {
				return errRefuse // tree: "empty ring"
			}
		default:
			return errRefuse // non-ring body: tree errors at init
		}
		for i := 0; i < 3; i++ {
			if err := l.expr(b.Input(i)); err != nil {
				return err
			}
		}
		init := l.emit(Op{Code: opForInit})
		l.ctrlH++
		loop := l.here()
		next := l.emit(Op{Code: opForNext})
		if err := l.cSlot(b.Input(3), true); err != nil {
			return err
		}
		l.emit(Op{Code: opYield})
		l.emit(Op{Code: opJump, A: loop})
		l.ctrlH--
		end := l.here()
		l.patch(init, end)
		l.patch(next, end)
		return nil

	case "doForEach":
		if len(b.Inputs) != 3 {
			return errRefuse
		}
		switch body := b.Input(2).(type) {
		case blocks.ScriptNode:
		case blocks.RingNode:
			if body.Body == nil {
				return errRefuse
			}
		default:
			return errRefuse // non-ring body: tree errors per iteration
		}
		if err := l.expr(b.Input(0)); err != nil {
			return err
		}
		if err := l.expr(b.Input(1)); err != nil {
			return err
		}
		init := l.emit(Op{Code: opForEachInit})
		l.ctrlH++
		loop := l.here()
		next := l.emit(Op{Code: opForEachNext})
		if err := l.cSlot(b.Input(2), true); err != nil {
			return err
		}
		l.emit(Op{Code: opPopFrame}) // the per-iteration loop-variable frame
		l.emit(Op{Code: opYield})
		l.emit(Op{Code: opJump, A: loop})
		l.ctrlH--
		end := l.here()
		l.patch(init, end)
		l.patch(next, end)
		return nil

	case "doWait":
		if len(b.Inputs) != 1 {
			return errRefuse
		}
		if err := l.expr(b.Input(0)); err != nil {
			return err
		}
		init := l.emit(Op{Code: opWaitInit})
		l.ctrlH++
		loop := l.here()
		tick := l.emit(Op{Code: opWaitTick})
		l.emit(Op{Code: opJump, A: loop})
		l.ctrlH--
		end := l.here()
		l.patch(init, end)
		l.patch(tick, end)
		return nil

	case "doWarp":
		if len(b.Inputs) != 1 {
			return errRefuse
		}
		l.emit(Op{Code: opEnterWarp})
		if err := l.cSlot(b.Input(0), false); err != nil {
			return err
		}
		l.emit(Op{Code: opExitWarp})
		return nil

	case "doReport":
		if len(b.Inputs) != 1 {
			return errRefuse
		}
		if err := l.expr(b.Input(0)); err != nil {
			return err
		}
		l.emit(Op{Code: opReport})
		return nil

	case "doStopThis":
		l.emit(Op{Code: opStop})
		return nil
	}

	// Table-driven operators: commands emit nothing, reporters in
	// statement position discard their value like the tree does.
	if i, ok := interp.PureOpIndex(b.Op); ok && interp.PureOps[i].Accepts(len(b.Inputs)) {
		if err := l.emitPrim(b, i); err != nil {
			return err
		}
		if !interp.PureOps[i].Cmd {
			l.emit(Op{Code: opPop})
		}
		return nil
	}
	if isHofOp(b.Op) {
		if err := l.tryHof(b); err != nil {
			return err
		}
		l.emit(Op{Code: opPop})
		return nil
	}
	return errRefuse
}

func (l *lowerer) emitPrim(b *blocks.Block, idx int) error {
	n := len(b.Inputs)
	for i := 0; i < n; i++ {
		if err := l.expr(b.Input(i)); err != nil {
			return err
		}
	}
	l.emit(Op{Code: opPrim, A: int32(idx), B: int32(n)})
	return nil
}

func isHofOp(op string) bool {
	return op == "reportMap" || op == "reportKeep" || op == "reportCombine"
}

func (l *lowerer) expr(n blocks.Node) error {
	switch e := n.(type) {
	case blocks.Literal:
		switch v := e.Val.(type) {
		case nil:
			l.emit(Op{Code: opNothing})
		case *value.List:
			l.emit(Op{Code: opConstList, A: l.constIdx(v)})
		default:
			l.emit(Op{Code: opConst, A: l.constIdx(v)})
		}
		return nil

	case blocks.EmptySlot:
		return l.implicitSlot()

	case blocks.VarGet:
		l.emit(Op{Code: opVarGet, A: l.nameIdx(e.Name)})
		return nil

	case blocks.RingNode:
		// Ring values reify against the current frame; inside an inlined
		// parameterless hof that frame does not exist, so refuse.
		if l.inHof() {
			return errRefuse
		}
		l.p.RingTemplates = append(l.p.RingTemplates, e)
		l.emit(Op{Code: opMakeRing, A: int32(len(l.p.RingTemplates) - 1)})
		return nil

	case blocks.ScriptNode:
		if l.inHof() {
			return errRefuse
		}
		l.p.Scripts = append(l.p.Scripts, e.Script)
		l.emit(Op{Code: opMakeScrip, A: int32(len(l.p.Scripts) - 1)})
		return nil

	case *blocks.Block:
		lo := len(l.p.Ops)
		if err := l.exprBlock(e); err != nil {
			return err
		}
		if !l.inHof() {
			l.tryFold(lo)
		}
		return nil

	default:
		return l.fallbackExpr(n)
	}
}

// fallbackExpr splices an expression subtree through the tree-walker —
// legal only outside inlined hof bodies, where the current frame is the
// complete environment the tree would have seen.
func (l *lowerer) fallbackExpr(n blocks.Node) error {
	if l.inHof() {
		return errRefuse
	}
	l.emitCallTree(n, false)
	return nil
}

// Constant folding: a finished expression whose ops are all pure —
// deterministic, effect-free, and independent of the process, the frame,
// and the machine — is partially evaluated at compile time on a scratch
// run and replaced by a single constant load. This is the payoff of
// lowering to a flat op stream: the compile-time evaluator IS the runtime
// one, so the folded value is the value the runtime would have computed,
// including through whole inlined map/keep/combine loops over literal
// lists. Folding is attempted only outside hof scopes so every opHofArg
// in a candidate segment belongs to a hof fully contained in it.
const foldBudget = 4096

// foldMaxItems bounds folded containers: beyond this a constant list
// costs more to clone per evaluation than it saves, and it would distort
// the byte accounting of the shared program cache.
const foldMaxItems = 1024

func pureOp(op Op) bool {
	switch op.Code {
	case opConst, opConstList, opNothing, opHofArg, opJump, opJumpFalse,
		opJumpTrue, opMapInit, opMapNext, opKeepInit, opKeepNext,
		opCombineInit, opCombineNext:
		return true
	case opPrim:
		return !interp.PureOps[op.A].Cmd
	}
	return false
}

// constEval runs the pure segment [lo, hi) of p on a scratch run with no
// process. Any error, budget overrun, or unbalanced stack refuses the
// fold; the runtime then reproduces the exact same behavior op by op.
func constEval(p *Program, lo, hi int) (value.Value, bool) {
	var r run
	r.prog = p
	r.stack = r.stack0[:0]
	r.ctrl = r.ctrl0[:0]
	r.fsave = r.fsave0[:0]
	r.pc = lo
	for ops := 0; r.pc < hi; ops++ {
		if ops >= foldBudget {
			return nil, false
		}
		op := p.Ops[r.pc]
		r.pc++
		if err := r.exec1(nil, op); err != nil {
			return nil, false
		}
	}
	if len(r.stack) != 1 || len(r.ctrl) != 0 || len(r.fsave) != 0 {
		return nil, false
	}
	return r.stack[0], true
}

func (l *lowerer) tryFold(lo int) {
	if len(l.p.Ops)-lo < 2 {
		return // a bare constant load folds to itself
	}
	for _, op := range l.p.Ops[lo:] {
		if !pureOp(op) {
			return
		}
		if l.ctrlH != 0 {
			// Inlined hof loops address the control stack by the absolute
			// index assigned at lowering time, but the scratch run starts
			// at depth zero — inside a loop the indices would be shifted,
			// so only depth-zero segments may fold hof machinery.
			switch op.Code {
			case opHofArg, opMapInit, opMapNext, opKeepInit, opKeepNext,
				opCombineInit, opCombineNext:
				return
			}
		}
	}
	v, ok := constEval(l.p, lo, len(l.p.Ops))
	if !ok || v == nil {
		return
	}
	code := opConst
	switch fv := v.(type) {
	case *value.List:
		if fv.Len() > foldMaxItems {
			return
		}
		code = opConstList
	case value.Text:
		if len(fv) > 1<<16 {
			return
		}
	case value.Nothing:
		l.p.Ops = l.p.Ops[:lo]
		l.emit(Op{Code: opNothing})
		return
	}
	l.p.Ops = l.p.Ops[:lo]
	l.emit(Op{Code: code, A: l.constIdx(v)})
}

func (l *lowerer) exprBlock(b *blocks.Block) error {
	if i, ok := interp.PureOpIndex(b.Op); ok && interp.PureOps[i].Accepts(len(b.Inputs)) {
		if err := l.emitPrim(b, i); err != nil {
			return err
		}
		if interp.PureOps[i].Cmd {
			l.emit(Op{Code: opNothing}) // a command in expr position reports Nothing
		}
		return nil
	}
	if isHofOp(b.Op) {
		err := l.tryHof(b)
		if err == nil {
			return nil
		}
		return l.fallbackExpr(b)
	}
	return l.fallbackExpr(b)
}

// implicitSlot resolves an empty slot against the static hof scope stack,
// mirroring Frame.TakeImplicit over the frames the tree-walker would have
// built: the innermost implicit-bearing (parameterless) call frame binds
// the slot with a per-call cursor. Because hof bodies are expressions —
// every subterm evaluates exactly once per call, in lowering order — the
// cursor is static. A parameterized innermost ring shadows nothing (its
// frame has no implicits), so the slot either falls through to Nothing
// (no parameterless scope anywhere) or would bind an outer parameterless
// scope with a dynamic cursor, which bytecode cannot express: refuse.
func (l *lowerer) implicitSlot() error {
	if len(l.hofs) == 0 {
		l.emit(Op{Code: opNothing})
		return nil
	}
	inner := &l.hofs[len(l.hofs)-1]
	if inner.params {
		for i := 0; i < len(l.hofs)-1; i++ {
			if !l.hofs[i].params {
				return errRefuse
			}
		}
		l.emit(Op{Code: opNothing})
		return nil
	}
	l.emit(Op{Code: opHofArg, A: inner.ctrlIdx, B: inner.cursor})
	inner.cursor++
	return nil
}

// tryHof attempts to inline a map/keep/combine call; on refusal it rolls
// the program back to the attempt point and reports errRefuse so the
// caller can either splice the whole call (at depth 0) or propagate.
func (l *lowerer) tryHof(b *blocks.Block) error {
	m := l.mark()
	if err := l.hof(b); err != nil {
		l.restore(m)
		return errRefuse
	}
	return nil
}

func (l *lowerer) hof(b *blocks.Block) error {
	if len(b.Inputs) != 2 {
		return errRefuse
	}
	var ringIn, listIn blocks.Node
	var initCode, nextCode Code
	nargs := 1
	switch b.Op {
	case "reportMap":
		ringIn, listIn = b.Input(0), b.Input(1)
		initCode, nextCode = opMapInit, opMapNext
	case "reportKeep":
		ringIn, listIn = b.Input(0), b.Input(1)
		initCode, nextCode = opKeepInit, opKeepNext
	case "reportCombine":
		listIn, ringIn = b.Input(0), b.Input(1)
		initCode, nextCode = opCombineInit, opCombineNext
		nargs = 2
	default:
		return errRefuse
	}
	rn, ok := ringIn.(blocks.RingNode)
	if !ok {
		return errRefuse // dynamic ring operand
	}
	if rn.Body == nil {
		return errRefuse // tree: "cannot call an empty ring"
	}
	if _, isScript := rn.Body.(*blocks.Script); isScript {
		return errRefuse // command-ring bodies cross a proc boundary
	}
	// Evaluation order: the ring operand reifies without side effects, so
	// only the list operand emits code; for combine it is Inputs[0] and
	// evaluates first either way.
	if err := l.expr(listIn); err != nil {
		return err
	}
	init := l.emit(Op{Code: initCode})
	scope := hofScope{ctrlIdx: l.ctrlH, params: len(rn.Params) > 0, nargs: nargs}
	l.ctrlH++
	l.hofs = append(l.hofs, scope)
	loop := l.here()
	next := l.emit(Op{Code: nextCode})
	if scope.params {
		l.p.Metas = append(l.p.Metas, ringMeta{params: rn.Params})
		l.emit(Op{Code: opHofParams, A: scope.ctrlIdx, B: int32(len(l.p.Metas) - 1)})
	}
	if err := l.expr(rn.Body); err != nil {
		return err
	}
	if scope.params {
		l.emit(Op{Code: opPopFrame})
	}
	l.emit(Op{Code: opJump, A: loop})
	l.hofs = l.hofs[:len(l.hofs)-1]
	l.ctrlH--
	end := l.here()
	l.patch(init, end)
	l.patch(next, end)
	return nil
}
