package codegen

import (
	"strings"
	"testing"

	"repro/internal/blocks"
	"repro/internal/value"
)

// Edge-path tests complementing the main codegen suite.

func TestCTypeStrings(t *testing.T) {
	cases := map[CType]string{
		CInt:         "int",
		CDouble:      "double",
		CBool:        "int",
		CCharPtr:     "char *",
		CIntArray:    "int[]",
		CDoubleArray: "double[]",
		CListPtr:     "node_t *",
		CUnknown:     "/*unknown*/ double",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(ty), got, want)
		}
	}
}

func TestCSetVarStateless(t *testing.T) {
	// The bare CLang (no emitter) assigns without declaring.
	tr := New(CLang())
	stmt, err := tr.Stmt(blocks.SetVar("x", blocks.Num(5)), 1)
	if err != nil || stmt != "    x = 5;" {
		t.Errorf("stateless setvar = %q, %v", stmt, err)
	}
	if _, err := tr.Stmt(blocks.NewBlock("doSetVar",
		blocks.Reporter(blocks.Sum(blocks.Num(1), blocks.Num(1))), blocks.Num(5)), 0); err == nil {
		t.Error("non-name target should error")
	}
}

func TestCMonadicAllFunctions(t *testing.T) {
	tr := New(CLang())
	cases := map[string]string{
		"sqrt":    "sqrt(x)",
		"abs":     "fabs(x)",
		"floor":   "floor(x)",
		"ceiling": "ceil(x)",
		"ln":      "log(x)",
		"log":     "log10(x)",
		"sin":     "sin((x) * M_PI / 180)",
		"cos":     "cos((x) * M_PI / 180)",
		"tan":     "tan((x) * M_PI / 180)",
	}
	for fn, want := range cases {
		got, err := tr.Expr(blocks.Reporter(blocks.Monadic(fn, blocks.Var("x"))))
		if err != nil || got != want {
			t.Errorf("monadic %s = %q, %v; want %q", fn, got, err, want)
		}
	}
}

func TestLiteralEdgeCases(t *testing.T) {
	tr := New(CLang())
	// Boolean literals.
	if got, _ := tr.Expr(blocks.BoolLit(true)); got != "1" {
		t.Errorf("true = %q", got)
	}
	if got, _ := tr.Expr(blocks.BoolLit(false)); got != "0" {
		t.Errorf("false = %q", got)
	}
	// List literal (as a value, not a reportNewList block).
	got, err := tr.Expr(blocks.Lit(value.NewList(value.Number(1), value.Number(2))))
	if err != nil || got != "{1, 2}" {
		t.Errorf("list literal = %q, %v", got, err)
	}
	// Lists of non-translatable values error.
	if _, err := tr.Expr(blocks.Lit(value.NewList(&value.Opaque{Tag: "x"}))); err == nil {
		t.Error("opaque in list literal should error")
	}
	if _, err := tr.Expr(blocks.Lit(&value.Opaque{Tag: "x"})); err == nil {
		t.Error("opaque literal should error")
	}
	// JS quotes strings with escapes.
	jt := New(JSLang())
	if got, _ := jt.Expr(blocks.Txt(`say "hi"`)); got != `"say \"hi\""` {
		t.Errorf("js quote = %q", got)
	}
}

func TestRingExprInline(t *testing.T) {
	// A bare ring in expression position translates to its body with
	// parameters as implicits.
	tr := New(CLang())
	got, err := tr.Expr(blocks.RingOf(blocks.Sum(blocks.Var("k"), blocks.Num(1)), "k"))
	if err != nil || got != "(k + 1)" {
		t.Errorf("ring expr = %q, %v", got, err)
	}
	// A command ring cannot be an expression.
	_, err = tr.Expr(blocks.RingScript(blocks.NewScript(blocks.Stop())))
	if err == nil || err.Error() != "cannot translate a command ring as an expression" {
		t.Errorf("command ring as expression: %v", err)
	}
	// Nil input cannot be translated.
	if _, err := tr.Expr(nil); err == nil {
		t.Error("nil node should error")
	}
}

func TestMultipleImplicits(t *testing.T) {
	// Two empty slots with two implicit names bind positionally; extra
	// empties clamp to the last name.
	tr := New(CLang()).WithImplicits("a", "b")
	got, err := tr.Expr(blocks.Reporter(blocks.Sum(blocks.Empty(), blocks.Empty())))
	if err != nil || got != "(a + b)" {
		t.Errorf("two implicits = %q, %v", got, err)
	}
	tr = New(CLang()).WithImplicits("a", "b")
	got, _ = tr.Expr(blocks.Reporter(blocks.Sum(blocks.Empty(),
		blocks.Reporter(blocks.Sum(blocks.Empty(), blocks.Empty())))))
	if got != "(a + (b + b))" {
		t.Errorf("exhausted implicits = %q", got)
	}
}

func TestBodyOfVariants(t *testing.T) {
	tr := New(CLang())
	// RingNode with a script body is accepted as a C-slot.
	body, err := tr.BodyOf(blocks.RingScript(blocks.NewScript(
		blocks.ChangeVar("x", blocks.Num(1)))), 0)
	if err != nil || !strings.Contains(body, "x += 1;") {
		t.Errorf("ring body = %q, %v", body, err)
	}
	// Empty slot body is an empty body.
	body, err = tr.BodyOf(blocks.Empty(), 0)
	if err != nil || body != "" {
		t.Errorf("empty body = %q, %v", body, err)
	}
	// Ring with a reporter body is not a script body.
	if _, err := tr.BodyOf(blocks.RingOf(blocks.Num(1)), 0); err == nil {
		t.Error("reporter ring body should error")
	}
	// A plain literal is not a body.
	if _, err := tr.BodyOf(blocks.Num(1), 0); err == nil {
		t.Error("literal body should error")
	}
}

func TestScanDetectsIncludes(t *testing.T) {
	// Monadic inside a ring inside an if: scan must find math.h.
	e := NewCEmitter()
	src, err := e.Program(blocks.NewScript(
		blocks.SetVar("x", blocks.Num(2)),
		blocks.If(blocks.GreaterThan(blocks.Var("x"), blocks.Num(0)), blocks.Body(
			blocks.SetVar("x", blocks.Reporter(blocks.Monadic("sqrt", blocks.Var("x")))))),
		blocks.Wait(blocks.Num(1)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "#include <math.h>") {
		t.Error("math.h missing")
	}
	if !strings.Contains(src, "#include <unistd.h>") {
		t.Error("unistd.h missing (doWait → sleep)")
	}
}

func TestIsEmptyListLiteralPaths(t *testing.T) {
	if !isEmptyListLiteral(blocks.ListOf()) {
		t.Error("empty reportNewList")
	}
	if isEmptyListLiteral(blocks.ListOf(blocks.Num(1))) {
		t.Error("non-empty reportNewList")
	}
	if !isEmptyListLiteral(blocks.Lit(value.NewList())) {
		t.Error("empty list literal")
	}
	if isEmptyListLiteral(blocks.Num(1)) {
		t.Error("number is not a list")
	}
}

func TestPythonParallelMapIdiom(t *testing.T) {
	got, err := New(PythonLang()).Expr(blocks.ParallelMap(
		blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(2))),
		blocks.Var("data"), blocks.Empty()))
	if err != nil {
		t.Fatal(err)
	}
	if got != "multiprocessing.Pool().map(lambda x: (x * 2), data)" {
		t.Errorf("python parallelMap = %q", got)
	}
}

func TestPythonForEachStatement(t *testing.T) {
	tr := New(PythonLang())
	src, err := tr.Stmt(blocks.ForEach("w", blocks.Var("words"),
		blocks.Body(blocks.Say(blocks.Var("w")))), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "for w in words:") || !strings.Contains(src, "    print(w)") {
		t.Errorf("python forEach = %q", src)
	}
}

func TestUnmappedStatementErrors(t *testing.T) {
	tr := New(GoLang())
	if _, err := tr.Stmt(blocks.Broadcast(blocks.Txt("x")), 0); err == nil {
		t.Error("unmapped statement should error")
	}
	if _, err := tr.Script(blocks.NewScript(blocks.Broadcast(blocks.Txt("x"))), 0); err == nil {
		t.Error("script with unmapped statement should error")
	}
}

func TestFillBadPlaceholders(t *testing.T) {
	// A malformed body placeholder index is a translator bug surfaced
	// as an error, not a panic.
	lang := CLang()
	lang.Stmt["zorp"] = "<&x>"
	tr := New(lang)
	if _, err := tr.Stmt(blocks.NewBlock("zorp", blocks.Body()), 0); err == nil {
		t.Error("bad body placeholder should error")
	}
}
