package vm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/blocks"
	"repro/internal/codegen"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/lint"
	"repro/internal/value"
)

// TestPureOpsCoverage walks the shared pure-primitive table and checks that
// every tier consumes every entry: the tree walker has it registered, the
// lowering pass emits a table op for it, the ring compiler compiles it
// (reporters only: kernels never run commands), and the linter enforces
// its arity, and each code-mapping target either maps it or names it in
// codegenUnmapped; an entry with a number form must agree with its boxed
// form (checkNum2). A tier that silently stopped covering a primitive
// would fall back to a slower path with no test noticing; this one does.
func TestPureOpsCoverage(t *testing.T) {
	for lang, ops := range codegenUnmapped {
		for op := range ops {
			if _, ok := interp.PureOpIndex(op); !ok {
				t.Errorf("codegenUnmapped[%q] names %q, which is not a pure primitive", lang, op)
			}
		}
	}
	for i := range interp.PureOps {
		o := &interp.PureOps[i]
		t.Run(o.Name, func(t *testing.T) {
			if j, ok := interp.PureOpIndex(o.Name); !ok || j != i {
				t.Errorf("PureOpIndex(%q) = %d, %v; want %d", o.Name, j, ok, i)
			}
			if !interp.HasPrimitive(o.Name) {
				t.Error("not registered with the tree walker")
			}
			checkLowered(t, o, i)
			if !o.Cmd {
				ring := &blocks.Ring{Body: withInputs(o.Name, o.Arity, func(int) blocks.Node { return blocks.Num(1) })}
				if _, ok := compile.Ring(ring); !ok {
					t.Error("compile.Ring refused a ring of the op with literal inputs")
				}
			}
			checkLintArity(t, o)
			checkCodegen(t, o)
			checkNum2(t, o)
		})
	}
}

// num2Grid is the operand grid checkNum2 crosses with itself: signed
// zeros (0 among them as a divisor), units, infinities, NaN, a value one
// product from overflow, and a fraction.
var num2Grid = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, 2.5}

// checkNum2 pins the one-definition rule for entries with a number form:
// on every pair of grid operands, the boxed Fn reports Num2's error
// wording, or Num2's value boxed by value.Num, bit for bit.
func checkNum2(t *testing.T, o *interp.PureOp) {
	t.Helper()
	if o.Num2 == nil {
		return
	}
	for _, a := range num2Grid {
		for _, b := range num2Grid {
			bv, berr := o.Fn([]value.Value{value.Num(a), value.Num(b)})
			r, ferr := o.Num2(a, b)
			if fmt.Sprint(berr) != fmt.Sprint(ferr) {
				t.Errorf("(%v, %v): Fn error %v, Num2 error %v", a, b, berr, ferr)
				continue
			}
			if berr != nil {
				continue
			}
			n, ok := bv.(value.Number)
			if want := value.Num(r).(value.Number); !ok || math.Float64bits(float64(n)) != math.Float64bits(float64(want)) {
				t.Errorf("(%v, %v): Fn reports %v, Num2 %v", a, b, bv, r)
			}
		}
	}
}

// codegenUnmapped names, per code-mapping target, the pure primitives it
// has no mapping for. A new pure primitive fails checkCodegen until each
// target maps it or lists it here.
var codegenUnmapped = map[string]map[string]bool{
	"c": opSet("reportIfElse", "reportJoinWords", "reportLetter", "reportStringSize", "reportTextSplit",
		"reportNumbers", "reportListContainsItem", "doDeleteFromList", "doInsertInList", "doReplaceInList"),
	"js": opSet("reportMonadic", "reportIfElse", "reportLetter", "reportNumbers",
		"doDeleteFromList", "doInsertInList", "doReplaceInList"),
	"python": opSet("reportMonadic", "reportIfElse", "reportLetter",
		"doDeleteFromList", "doInsertInList", "doReplaceInList"),
	"go": opSet("reportModulus", "reportMonadic", "reportIfElse", "reportJoinWords", "reportLetter",
		"reportStringSize", "reportTextSplit", "reportNumbers", "reportListContainsItem",
		"doDeleteFromList", "doInsertInList", "doReplaceInList"),
}

func opSet(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// checkCodegen requires each code-mapping target's table to map the op
// exactly when codegenUnmapped does not name it.
func checkCodegen(t *testing.T, o *interp.PureOp) {
	t.Helper()
	for _, l := range []*codegen.Lang{codegen.CLang(), codegen.JSLang(), codegen.PythonLang(), codegen.GoLang()} {
		_, expr := l.Expr[o.Name]
		_, stmt := l.Stmt[o.Name]
		_, custom := l.Custom[o.Name]
		mapped := expr || stmt || custom
		switch unmapped := codegenUnmapped[l.Name][o.Name]; {
		case !mapped && !unmapped:
			t.Errorf("no %s mapping and not listed in codegenUnmapped", l.Name)
		case mapped && unmapped:
			t.Errorf("%s maps it but codegenUnmapped lists it", l.Name)
		}
	}
}

// withInputs builds a block of op with n inputs made by in.
func withInputs(op string, n int, in func(int) blocks.Node) *blocks.Block {
	ins := make([]blocks.Node, n)
	for k := range ins {
		ins[k] = in(k)
	}
	return blocks.NewBlock(op, ins...)
}

// checkLowered lowers a one-block script applying the op to variable
// reads (literals would constant-fold the op away) and requires the
// program to apply table entry i natively.
func checkLowered(t *testing.T, o *interp.PureOp, i int) {
	t.Helper()
	names := []string{"a", "b", "c"}
	b := withInputs(o.Name, o.Arity, func(k int) blocks.Node { return blocks.Var(names[k]) })
	s := blocks.NewScript(b)
	if !o.Cmd {
		s = blocks.NewScript(blocks.Report(b))
	}
	prog := LowerScript(s)
	if prog == nil {
		t.Fatal("lowering refused the script")
	}
	found := false
	for _, op := range prog.Ops {
		switch {
		case op.Code == opCallTree:
			t.Errorf("lowered to a tree splice: %+v", prog.Ops)
		case op.Code == opPrim && op.A == int32(i) && op.B == int32(o.Arity):
			found = true
		}
	}
	if !found {
		t.Errorf("no opPrim applying entry %d in %+v", i, prog.Ops)
	}
}

// checkLintArity requires the linter to accept the declared arity and flag
// one input too many (fixed arity) or one too few.
func checkLintArity(t *testing.T, o *interp.PureOp) {
	t.Helper()
	badArity := func(n int) int {
		b := withInputs(o.Name, n, func(int) blocks.Node { return blocks.Num(1) })
		p := blocks.NewProject("t")
		p.AddSprite(blocks.NewSprite("S")).AddScript(blocks.HatGreenFlag, "", blocks.NewScript(b))
		count := 0
		for _, f := range lint.Project(p) {
			if f.Code == "bad-arity" {
				count++
			}
		}
		return count
	}
	if got := badArity(o.Arity); got != 0 {
		t.Errorf("lint flags the declared arity %d", o.Arity)
	}
	if !o.Variadic && badArity(o.Arity+1) != 1 {
		t.Errorf("lint accepts %d inputs (arity %d)", o.Arity+1, o.Arity)
	}
	if o.Variadic && badArity(o.Arity+1) != 0 {
		t.Errorf("lint flags %d inputs of a variadic op with minimum %d", o.Arity+1, o.Arity)
	}
	if o.Arity > 0 && badArity(o.Arity-1) != 1 {
		t.Errorf("lint accepts %d inputs (arity %d)", o.Arity-1, o.Arity)
	}
}
