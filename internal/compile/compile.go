// Package compile is the ring-compiler tier of the worker runtime. It
// lowers a *shipped* reporter ring — the environment-stripped function a
// parallel block sends to its Web-Worker-equivalent goroutines — into a
// direct Go closure, so the hot per-element path of parallelMap/mapReduce
// pays a handful of function calls instead of a fresh interpreter Process,
// Context stack, and per-step dispatch.
//
// The compiler is deliberately partial: it handles exactly the worker-safe
// pure subset of the language (arithmetic, comparison, logic, text, list
// reads, the reporter conditional, the sequential higher-order blocks with
// literal inner rings, and parameter/implicit-slot references). Anything
// else — stage or file blocks, random numbers, command scripts, rings
// flowing as values, dynamically consumed implicit slots — makes Ring
// report ok=false and the caller falls back to the interpreter tier
// (interp.CallFunction / interp.Caller), which remains the semantic source
// of truth. A differential test (see differential_test.go) pins the two
// tiers to identical results and identical error messages. Purely
// arithmetic rings also get an unboxed float form (float.go), which runs
// the mapReduce block and the combine fold over float columns.
package compile

import (
	"fmt"
	"sync"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/value"
)

// Fn is a compiled reporter ring: call it with the ring's arguments and it
// reports the ring's value or the error the interpreter would have raised.
// An Fn is pure and stateless — safe for concurrent calls from many worker
// goroutines — and does NOT clone its arguments or its result; the caller
// owns the worker-boundary clone discipline, exactly as it does around
// interp.CallFunction. The args slice is only read during the call and may
// be reused by the caller afterwards.
type Fn func(args []value.Value) (value.Value, error)

// Ring compiles a shipped reporter ring. ok is false when any part of the
// body falls outside the compilable subset; the caller must then use the
// interpreter tier. Only shipped rings (no captured environment) are
// accepted: a ring still carrying its closure frames could see variables
// the compiler cannot resolve statically.
//
// Ring is also the tier decision's single metering point: when
// observability is on, every call lands in engine_compile_hits_total or
// engine_compile_fallbacks_total{reason=...} — counted here, and only
// here, so the compile-tier counters agree one-to-one with the
// differential harness's own tally (see differential_test.go).
func Ring(r *blocks.Ring) (Fn, bool) {
	fn, reason, ok := ring(r)
	if obs.Enabled() {
		if ok {
			obs.CompileHits.Inc()
		} else {
			obs.CompileFallbacks.With(reason).Inc()
		}
	}
	return fn, ok
}

// ring is the unmetered compiler; reason classifies the refusal (one of
// obs.CompileReasons) when ok is false.
func ring(r *blocks.Ring) (Fn, string, bool) {
	ex, reason, ok := ringBody(r)
	if !ok {
		return nil, reason, false
	}
	return func(args []value.Value) (value.Value, error) {
		e := envPool.Get().(*rootEnv)
		e.args = args
		v, err := ex(&e.env)
		e.put()
		if v == nil && err == nil {
			// Mirror Process.Result(): a detached evaluation that
			// produced no value reports Nothing.
			v = value.TheNothing
		}
		return v, err
	}, "", true
}

// UnaryFn is a compiled reporter ring called with one argument. Like Fn
// it is safe for concurrent calls and clones nothing.
type UnaryFn func(arg value.Value) (value.Value, error)

// UnaryRing compiles a shipped reporter ring for one-argument calls — the
// mapReduce block's mapper and reducer. The argument sits in the pooled
// environment's own slot, so a call allocates no argument slice.
// UnaryRing is unmetered: the compile of the same ring every caller also
// performs (see Ring) is the tier decision's single metering point.
func UnaryRing(r *blocks.Ring) (UnaryFn, bool) {
	ex, _, ok := ringBody(r)
	if !ok {
		return nil, false
	}
	return func(arg value.Value) (value.Value, error) {
		e := argEnv(arg)
		v, err := ex(&e.env)
		e.put()
		if v == nil && err == nil {
			v = value.TheNothing // as ring does
		}
		return v, err
	}, true
}

// MapFn is a keyed map kernel: one call maps one item to one (key, value)
// pair, the mapReduce block's mapper convention (see Keyed) already
// applied. Like Fn it is safe for concurrent calls and clones nothing.
type MapFn func(item value.Value) (string, value.Value, error)

// Keyed applies the mapReduce block's mapper convention to a map ring's
// result: a two-element list supplies (key, value), anything else maps to
// the single shared "" key.
func Keyed(v value.Value) (string, value.Value) {
	if l, ok := v.(*value.List); ok && l.Len() == 2 {
		return l.MustItem(1).String(), l.MustItem(2)
	}
	return "", v
}

// MapperRing compiles a shipped map ring into a keyed map kernel. A body
// that is literally `list A B` evaluates A and B and reports (A's display
// string, B) without materializing the two-element pair list every call
// just to take it apart again; any other body runs as its UnaryRing and
// is keyed by Keyed. Unmetered, like UnaryRing.
func MapperRing(r *blocks.Ring) (MapFn, bool) {
	if b, ok := r.Body.(*blocks.Block); ok && r.Env == nil && b.Op == "reportNewList" && len(b.Inputs) == 2 {
		// One scope across both inputs, exactly as the whole body would
		// compile them: the implicit-slot cursor advances in order.
		sc := &scope{params: r.Params, fail: new(string)}
		ka, ok := compileNode(b.Input(0), sc)
		if !ok {
			return nil, false
		}
		kb, ok := compileNode(b.Input(1), sc)
		if !ok {
			return nil, false
		}
		return func(item value.Value) (string, value.Value, error) {
			e := argEnv(item)
			av, err := ka(&e.env)
			var bv value.Value
			if err == nil {
				bv, err = kb(&e.env)
			}
			e.put()
			if err != nil {
				return "", nil, err
			}
			return av.String(), bv, nil
		}, true
	}
	fn, ok := UnaryRing(r)
	if !ok {
		return nil, false
	}
	return func(item value.Value) (string, value.Value, error) {
		v, err := fn(item)
		if err != nil {
			return "", nil, err
		}
		k, v := Keyed(v)
		return k, v, nil
	}, true
}

// ringBody compiles the ring's body to one expr, shared by Ring and
// UnaryRing.
func ringBody(r *blocks.Ring) (expr, string, bool) {
	if r == nil || r.Body == nil {
		return nil, "empty", false
	}
	if r.Env != nil {
		return nil, "env", false
	}
	if _, isScript := r.Body.(*blocks.Script); isScript {
		return nil, "script-body", false
	}
	sc := &scope{params: r.Params, fail: new(string)}
	ex, ok := compileNode(r.Body, sc)
	if !ok {
		reason := *sc.fail
		if reason == "" {
			reason = "unsupported-node"
		}
		return nil, reason, false
	}
	return ex, "", true
}

// env is the runtime scope chain: one level per ring call, holding that
// call's arguments. Compiled variable and slot references are (depth,
// index) pairs resolved at compile time, so the runtime never searches by
// name.
type env struct {
	parent *env
	args   []value.Value
	// stack is the operand stack apply collects evaluated inputs on. The
	// env of an inner ring body continues its caller's stack, so one
	// buffer serves a whole kernel call.
	stack []value.Value
}

// rootEnv is the env of one kernel call, allocated together with the
// initial buffer of its operand stack: expressions that never hold more
// than len(buf) evaluated inputs at once push without allocating.
type rootEnv struct {
	env
	arg [1]value.Value // the argument of a one-argument call (argEnv)
	buf [4]value.Value
}

func newRootEnv() *rootEnv {
	r := &rootEnv{}
	r.stack = r.buf[:0]
	return r
}

// envPool recycles root envs across the calls of concurrently shared
// kernels (Ring, UnaryRing, MapperRing). Reuse is sound because no env
// outlives the call that took it: the compiled subset cannot let the
// environment escape a call — rings flowing as values are refused
// ("ring-value"), so no closure survives the return — and cannot re-enter
// the kernel (custom-block calls are outside the subset).
var envPool = sync.Pool{New: func() any { return newRootEnv() }}

// argEnv takes a pooled env for a one-argument call, holding the argument
// in the env's own slot so the call allocates no argument slice.
func argEnv(arg value.Value) *rootEnv {
	e := envPool.Get().(*rootEnv)
	e.arg[0] = arg
	e.args = e.arg[:]
	return e
}

// put releases e and returns it to envPool.
func (e *rootEnv) put() {
	e.arg[0] = nil
	e.release()
	envPool.Put(e)
}

// release drops every value a finished call left in a reused env, so a
// pooled kernel pins nothing between calls.
func (e *env) release() {
	e.args = nil
	clear(e.stack[:cap(e.stack)])
}

// innerEnv opens the scope of an inner ring body taking n arguments. The
// argument slots are reserved on the operand stack above every value the
// caller holds, so the scope itself is the only allocation.
func innerEnv(e *env, n int) *env {
	st := e.stack
	base := len(st)
	for k := 0; k < n; k++ {
		st = append(st, nil)
	}
	return &env{parent: e, args: st[base:], stack: st}
}

// expr is one compiled expression.
type expr func(*env) (value.Value, error)

// scope is the compile-time image of env: the parameter lists of the
// enclosing rings, plus the implicit-slot counter for parameterless rings.
type scope struct {
	parent *scope
	params []string
	slots  int // empty slots assigned so far, in evaluation order
	// fail, shared down the whole scope chain, records the FIRST refusal
	// reason hit while compiling the ring — the label on
	// engine_compile_fallbacks_total.
	fail *string
}

// refuse records why this subtree cannot compile (first reason wins) and
// returns the not-compilable pair, so refusal sites stay one-liners.
func (sc *scope) refuse(reason string) (expr, bool) {
	if sc.fail != nil && *sc.fail == "" {
		*sc.fail = reason
	}
	return nil, false
}

func constExpr(v value.Value) expr {
	return func(*env) (value.Value, error) { return v, nil }
}

func wrapOp(op string, err error) error { return fmt.Errorf("%s: %w", op, err) }

func nonNil(v value.Value) value.Value {
	if v == nil {
		return value.TheNothing
	}
	return v
}

func compileNode(n blocks.Node, sc *scope) (expr, bool) {
	switch x := n.(type) {
	case blocks.Literal:
		v := x.Val
		if v == nil {
			v = value.TheNothing
		}
		return constExpr(v), true
	case blocks.EmptySlot:
		return compileEmptySlot(sc)
	case blocks.VarGet:
		return compileVarGet(x.Name, sc)
	case *blocks.Block:
		return compileBlock(x, sc)
	case blocks.RingNode:
		// A ring outside a higher-order slot flows as a value and would
		// need frame capture: interpreter only.
		return sc.refuse("ring-value")
	default:
		// ScriptNode and anything unforeseen stay on the interpreter.
		return sc.refuse("unsupported-node")
	}
}

// compileEmptySlot resolves an implicit argument slot. The interpreter
// binds implicits on the nearest enclosing parameterless ring call: one
// argument fills every slot, several are consumed left to right. Slots are
// evaluated in left-to-right depth-first order — the same order this
// compiler walks the body — so the dynamic cursor becomes a static index.
func compileEmptySlot(sc *scope) (expr, bool) {
	if len(sc.params) == 0 {
		idx := sc.slots
		sc.slots++
		return func(e *env) (value.Value, error) {
			args := e.args
			if len(args) == 1 {
				return nonNil(args[0]), nil
			}
			if idx < len(args) {
				return nonNil(args[idx]), nil
			}
			return value.TheNothing, nil
		}, true
	}
	for s := sc.parent; s != nil; s = s.parent {
		if len(s.params) == 0 {
			// A slot inside a parameterized ring would consume an
			// OUTER ring's implicit cursor, which advances across
			// separate calls of the inner ring — dynamic state the
			// static index cannot capture. Interpreter only.
			return sc.refuse("implicit-slot")
		}
	}
	// Every enclosing ring is parameterized: no frame carries implicits
	// and the slot reports nothing.
	return constExpr(value.TheNothing), true
}

// paramIndex is the position a parameter name binds to, or -1. It scans
// right to left: Declare overwrites in place, so a duplicated name binds
// to the value of its last position.
func paramIndex(params []string, name string) int {
	for i := len(params) - 1; i >= 0; i-- {
		if params[i] == name {
			return i
		}
	}
	return -1
}

func compileVarGet(name string, sc *scope) (expr, bool) {
	depth := 0
	for s := sc; s != nil; s = s.parent {
		if idx := paramIndex(s.params, name); idx >= 0 {
			d := depth
			return func(e *env) (value.Value, error) {
				for k := 0; k < d; k++ {
					e = e.parent
				}
				if idx < len(e.args) {
					return nonNil(e.args[idx]), nil
				}
				// Declared parameter with no argument: bound to
				// Nothing by CallRing.
				return value.TheNothing, nil
			}, true
		}
		depth++
	}
	// Free variable: a shipped ring has no environment, so the read
	// fails at call time with the interpreter's exact wording. Compiling
	// the failure (rather than refusing) keeps compiled and interpreted
	// rings byte-identical even on this error path.
	err := fmt.Errorf("a variable of name %q does not exist in this context", name)
	return func(*env) (value.Value, error) { return nil, err }, true
}

func compileBlock(b *blocks.Block, sc *scope) (expr, bool) {
	switch b.Op {
	case "reportCombine":
		return compileCombine(b, sc)
	case "reportMap", "reportKeep":
		return compileMapKeep(b, sc)
	}
	i, ok := interp.PureOpIndex(b.Op)
	if !ok || interp.PureOps[i].Cmd {
		return sc.refuse("unsupported-op")
	}
	if !interp.PureOps[i].Accepts(len(b.Inputs)) {
		// A block whose input count disagrees stays on the interpreter,
		// where it fails the same way it always has.
		return sc.refuse("arity")
	}
	ins := make([]expr, len(b.Inputs))
	for k := range b.Inputs {
		ex, ok := compileNode(b.Input(k), sc)
		if !ok {
			return nil, false
		}
		ins[k] = ex
	}
	return apply(&interp.PureOps[i], ins), true
}

// apply is the compiled form of every pure primitive: evaluate the inputs
// left to right — the interpreter's strict slot order, with child errors
// propagating unwrapped — then apply the shared table entry, whose own
// failure carries the block's opcode. The evaluated inputs are handed to
// the entry on the environment's operand stack, above every value an
// enclosing application holds, so the call allocates no argument slice.
// One- and two-input blocks, nearly every block in practice, hold their
// inputs in locals until the call.
func apply(op *interp.PureOp, ins []expr) expr {
	name, fn := op.Name, op.Fn
	switch len(ins) {
	case 1:
		a := ins[0]
		return func(e *env) (value.Value, error) {
			av, err := a(e)
			if err != nil {
				return nil, err
			}
			base := len(e.stack)
			st := append(e.stack, av)
			v, err := fn(st[base:])
			if cap(st) != cap(e.stack) {
				e.stack = st[:base] // keep the grown buffer
			}
			if err != nil {
				return nil, wrapOp(name, err)
			}
			return v, nil
		}
	case 2:
		a, b := ins[0], ins[1]
		return func(e *env) (value.Value, error) {
			av, err := a(e)
			if err != nil {
				return nil, err
			}
			bv, err := b(e)
			if err != nil {
				return nil, err
			}
			base := len(e.stack)
			st := append(e.stack, av, bv)
			v, err := fn(st[base:])
			if cap(st) != cap(e.stack) {
				e.stack = st[:base] // keep the grown buffer
			}
			if err != nil {
				return nil, wrapOp(name, err)
			}
			return v, nil
		}
	}
	return func(e *env) (value.Value, error) {
		base := len(e.stack)
		for _, in := range ins {
			v, err := in(e)
			if err != nil {
				e.stack = e.stack[:base]
				return nil, err
			}
			e.stack = append(e.stack, v)
		}
		v, err := fn(e.stack[base:])
		e.stack = e.stack[:base]
		if err != nil {
			return nil, wrapOp(name, err)
		}
		return v, nil
	}
}

// compileInnerRing compiles the literal ring slot of a higher-order block.
// Only a syntactic RingNode with a reporter body qualifies: a ring arriving
// as a runtime value would need frame capture, and an empty or command body
// errors in ways the interpreter already handles.
func compileInnerRing(n blocks.Node, sc *scope) (expr, bool) {
	rn, ok := n.(blocks.RingNode)
	if !ok || rn.Body == nil {
		return sc.refuse("ring-value")
	}
	if _, isScript := rn.Body.(*blocks.Script); isScript {
		return sc.refuse("script-body")
	}
	return compileNode(rn.Body, &scope{parent: sc, params: rn.Params, fail: sc.fail})
}

// compileCombine lowers "combine _ using _" to a sequential fold. Inputs:
// [0] the list expression, [1] the literal binary ring. The fold matches
// primCombine: an empty list reports 0, otherwise the accumulator starts at
// item 1 and the ring is called with (acc, item). A float column folds
// unboxed when the ring has a two-argument float form (foldFloats).
func compileCombine(b *blocks.Block, sc *scope) (expr, bool) {
	if len(b.Inputs) != 2 {
		return sc.refuse("arity")
	}
	listEx, ok := compileNode(b.Input(0), sc)
	if !ok {
		return nil, false
	}
	body, ok := compileInnerRing(b.Input(1), sc)
	if !ok {
		return nil, false
	}
	rn := b.Input(1).(blocks.RingNode) // compileInnerRing accepted it
	fold, _ := floatBody(rn.Params, rn.Body, 2)
	return func(e *env) (value.Value, error) {
		lv, err := listEx(e)
		if err != nil {
			return nil, err
		}
		l, err := interp.AsList(lv)
		if err != nil {
			return nil, wrapOp("reportCombine", err)
		}
		if xs, ok := l.FloatsView(); ok && fold != nil {
			return foldFloats(xs, fold)
		}
		n, it := columnIter(l)
		if n == 0 {
			return value.Number(0), nil
		}
		acc := it.at(0)
		ienv := innerEnv(e, 2)
		for i := 1; i < n; i++ {
			ienv.args[0], ienv.args[1] = acc, it.at(i)
			v, err := body(ienv)
			if err != nil {
				return nil, err
			}
			acc = nonNil(v)
		}
		return acc, nil
	}, true
}

// colIter is an indexed accessor over a list's backing that iterates a
// raw column directly — boxing each element through the interner, with no
// materialized []Value view — falling back to the boxed backing
// otherwise. It is a plain value (no closures), so taking one allocates
// nothing; that matters because the fold and map kernels run once per
// reduce key or call site on hot paths. Compiled kernels refuse script
// bodies, so a ring body cannot mutate l mid-iteration and the snapshot
// the iterator holds stays valid.
type colIter struct {
	nums  []float64
	strs  []string
	items []value.Value
}

func columnIter(l *value.List) (int, colIter) {
	if xs, ok := l.FloatsView(); ok {
		return len(xs), colIter{nums: xs}
	}
	if ss, ok := l.StringsView(); ok {
		return len(ss), colIter{strs: ss}
	}
	items := l.Items()
	return len(items), colIter{items: items}
}

func (it colIter) at(i int) value.Value {
	if it.nums != nil {
		return value.Num(it.nums[i])
	}
	if it.strs != nil {
		return value.Str(it.strs[i])
	}
	return nonNil(it.items[i])
}

// compileMapKeep lowers "map _ over _" / "keep items _ from _". Inputs:
// [0] the literal ring, [1] the list expression. Like primMap/primKeep the
// ring is called once per element with a single argument; keep coerces the
// verdict to a boolean and reports the kept originals.
func compileMapKeep(b *blocks.Block, sc *scope) (expr, bool) {
	if len(b.Inputs) != 2 {
		return sc.refuse("arity")
	}
	body, ok := compileInnerRing(b.Input(0), sc)
	if !ok {
		return nil, false
	}
	listEx, ok := compileNode(b.Input(1), sc)
	if !ok {
		return nil, false
	}
	op := b.Op
	keep := op == "reportKeep"
	return func(e *env) (value.Value, error) {
		lv, err := listEx(e)
		if err != nil {
			return nil, err
		}
		l, err := interp.AsList(lv)
		if err != nil {
			return nil, wrapOp(op, err)
		}
		n, it := columnIter(l)
		var outItems []value.Value
		if keep {
			outItems = make([]value.Value, 0)
		} else {
			outItems = make([]value.Value, 0, n)
		}
		ienv := innerEnv(e, 1)
		for i := 0; i < n; i++ {
			item := it.at(i)
			ienv.args[0] = item
			v, err := body(ienv)
			if err != nil {
				return nil, err
			}
			if keep {
				kb, err := value.ToBool(v)
				if err != nil {
					return nil, wrapOp(op, err)
				}
				if kb {
					outItems = append(outItems, item)
				}
			} else {
				outItems = append(outItems, v)
			}
		}
		// AdoptSlice re-columnarizes a long homogeneous result, so chained
		// maps keep the struct-of-arrays backing end to end.
		return value.AdoptSlice(outItems), nil
	}, true
}
