package parse

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/blocks"
	_ "repro/internal/core" // parallel blocks for parsed programs
	"repro/internal/interp"
	"repro/internal/value"
)

// evalExpr parses and evaluates one expression.
func evalExpr(t *testing.T, src string) value.Value {
	t.Helper()
	n, err := Expr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	b, ok := n.(*blocks.Block)
	if !ok {
		t.Fatalf("%q did not lower to a block (%T)", src, n)
	}
	m := interp.NewMachine(blocks.NewProject("parse"), nil)
	v, err := m.EvalReporter(b)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestExpressions(t *testing.T) {
	cases := map[string]string{
		"(+ 1 2)":                            "3",
		"(* (- 10 4) 7)":                     "42",
		"(/ 7 2)":                            "3.5",
		"(mod 7 3)":                          "1",
		"(sqrt 49)":                          "7",
		"(round 2.6)":                        "3",
		"(< 1 2)":                            "true",
		"(and true (not false))":             "true",
		`(join "a" "b" "c")`:                 "abc",
		`(letter 2 "cat")`:                   "a",
		`(split "a b" " ")`:                  "[a b]",
		"(list 3 7 8)":                       "[3 7 8]",
		"(numbers 1 5)":                      "[1 2 3 4 5]",
		"(item 2 (list 5 6 7))":              "6",
		"(length (list 1 2))":                "2",
		"(contains (list 1 2) 2)":            "true",
		"(map (ring (* _ 10)) (list 3 7 8))": "[30 70 80]",
		"(keep (ring (> _ 1)) (list 1 2 3))": "[2 3]",
		"(combine (numbers 1 100) (ring (+ _ _)))":           "5050",
		"(call (lambda (a b) (+ $a $b)) 3 4)":                "7",
		"(parallelmap (ring (* _ 10)) (list 3 7 8) 4)":       "[30 70 80]",
		"(parallelmap (ring (* _ 10)) (list 3 7 8) _)":       "[30 70 80]",
		"(parallelcombine (numbers 1 100) (ring (+ _ _)) 4)": "5050",
		"(parallelkeep (ring (> _ 5)) (numbers 1 8) 2)":      "[6 7 8]",
	}
	for src, want := range cases {
		if got := evalExpr(t, src).String(); got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
}

func TestFigure4Textually(t *testing.T) {
	// The textual spelling of Figure 4's program is one line.
	if got := evalExpr(t, "(map (ring (* _ 10)) (list 3 7 8))").String(); got != "[30 70 80]" {
		t.Errorf("Figure 4 = %s", got)
	}
}

func TestScriptParsing(t *testing.T) {
	script, err := Script(`
; sum the first ten numbers
(declare sum)
(set sum 0)
(for i 1 10 (do
    (change sum $i)))
(report $sum)
`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(blocks.NewProject("p"), nil)
	v, err := m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "55" {
		t.Errorf("sum = %s", v)
	}
}

func TestMapReduceTextually(t *testing.T) {
	script, err := Script(`
(report (mapreduce
    (ring (list _ 1))
    (ring (combine _ (ring (+ _ _))))
    (split "b a b" " ")))
`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(blocks.NewProject("p"), nil)
	v, err := m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "[[a 1] [b 2]]" {
		t.Errorf("mapreduce = %s", v)
	}
}

func TestParallelForEachTextually(t *testing.T) {
	script, err := Script(`
(declare acc)
(set acc (list))
(seqforeach x (numbers 1 3) (do (add (* $x $x) $acc)))
(report $acc)
`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(blocks.NewProject("p"), nil)
	v, err := m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "[1 4 9]" {
		t.Errorf("squares = %s", v)
	}
}

func TestControlForms(t *testing.T) {
	script, err := Script(`
(declare n log)
(set n 0)
(set log (list))
(repeat 3 (do (change n 1)))
(ifelse (= $n 3)
    (do (add "three" $log))
    (do (add "not three" $log)))
(until (> $n 5) (do (change n 1)))
(if (> $n 5) (do (add "big" $log)))
(warp (do (change n 100)))
(report (join $n "/" (item 1 $log) "/" (item 2 $log)))
`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(blocks.NewProject("p"), nil)
	v, err := m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "106/three/big" {
		t.Errorf("control forms = %s", v)
	}
}

// exprErrors pins Expr's error for each row, byte for byte. Columns
// count runes, U+0085 and U+00A0 are whitespace, and invalid UTF-8 reads
// as U+FFFD per byte, as they did when the reader ran over []rune.
var exprErrors = []struct{ src, want string }{
	{"", "expected exactly one expression, got 0"},
	{"(", "1:1: unclosed parenthesis"},
	{")", "1:1: unexpected ')'"},
	{"(+ 1", "1:1: unclosed parenthesis"},
	{`("not an op" 1)`, "1:2: a form must start with an operator symbol"},
	{"(zorp 1)", `1:2: unknown operator "zorp"`},
	{"(+ 1 2 3)", "1:1: + needs 2 inputs, got 3"},
	{"(+ 1)", "1:1: + needs 2 inputs, got 1"},
	{"(ring)", "1:1: ring takes exactly one body"},
	{"(ring 1 2)", "1:1: ring takes exactly one body"},
	{"(lambda x (+ 1 1))", "1:9: lambda parameters must be a list"},
	{`(lambda ("x") 1)`, "1:10: lambda parameter must be a symbol"},
	{"(lambda (x) 1 2)", "1:1: lambda takes a parameter list and one body"},
	{"()", "1:1: empty form"},
	{`(set 5 1)`, "1:1: set: expected a name"},
	{"($)", `1:2: unknown operator "$"`},
	{`"unterminated`, "1:1: unterminated string"},
	{"(declare 5)", "1:1: declare: declare: expected a name"},
	{"(+ 1 2) (+ 3 4)", "expected exactly one expression, got 2"},
	// Columns after non-ASCII text count runes, not bytes.
	{"(join \"héllo\" \"wörld\"\n  (zörp 1))", `2:4: unknown operator "zörp"`},
	{"(join \"日本\" (zorp 1))", `1:13: unknown operator "zorp"`},
	// U+00A0 and U+0085 separate tokens like a space.
	{"(+\u00a01)", "1:1: + needs 2 inputs, got 1"},
	{"(+\u00851 2 3)", "1:1: + needs 2 inputs, got 3"},
	{"\u00a0\u0085)", "1:3: unexpected ')'"},
	// Invalid UTF-8 in a symbol and in a string; each bad byte is one column.
	{"(zo\xffrp 1)", "1:2: unknown operator \"zo\uFFFDrp\""},
	{"(join \"a\xffb\" (zorp))", `1:14: unknown operator "zorp"`},
	{"(join \"a\xffb\" \"c\\\xffd\" ($))", `1:21: unknown operator "$"`},
	// A backslash at the end of input leaves a string open.
	{"\"abc\\", "1:1: unterminated string"},
	{"(+ 1 \\", "1:1: unclosed parenthesis"},
	// A comment at the end of input needs no newline.
	{"(+ 1 ; no newline", "1:1: unclosed parenthesis"},
	{"; only a comment", "expected exactly one expression, got 0"},
	{strings.Repeat("(", maxNesting+1), "1:10001: forms nested deeper than 10000"},
	{strings.Repeat("(", maxNesting), "1:10000: unclosed parenthesis"},
}

// scriptErrors pins Script's error for each row.
var scriptErrors = []struct{ src, want string }{
	{"(+ 1 2) 5", "1:9: scripts contain command blocks, not blocks.Literal"},
	{"(do (bogus))", `1:6: unknown operator "bogus"`},
}

func TestParseErrors(t *testing.T) {
	for _, c := range exprErrors {
		if _, err := Expr(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Expr(%.40q) error = %v, want %q", c.src, err, c.want)
		}
	}
	for _, c := range scriptErrors {
		if _, err := Script(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Script(%q) error = %v, want %q", c.src, err, c.want)
		}
	}
	// Nesting up to the cap is fine.
	deep := strings.Repeat("(list ", maxNesting) + "1" + strings.Repeat(")", maxNesting)
	if _, err := Expr(deep); err != nil {
		t.Errorf("%d-deep expression: %v", maxNesting, err)
	}
}

func TestStringEscapes(t *testing.T) {
	v := evalExpr(t, `(join "a\nb" "\t" "q\"q")`)
	if v.String() != "a\nb\tq\"q" {
		t.Errorf("escapes = %q", v.String())
	}
}

func TestComments(t *testing.T) {
	v := evalExpr(t, `
; leading comment
(+ 1 ; inline comment
   2)`)
	if v.String() != "3" {
		t.Errorf("comments = %s", v)
	}
}

func TestOpsListing(t *testing.T) {
	names := Ops()
	if len(names) < 40 {
		t.Errorf("vocabulary too small: %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Errorf("ops not sorted at %d: %s <= %s", i, names[i], names[i-1])
		}
	}
}

func TestParsedProgramCodegens(t *testing.T) {
	// Parsed programs flow into the §6 pipeline like built ones.
	n, err := Expr("(parallelmap (ring (* _ 10)) (list 3 7 8) 4)")
	if err != nil {
		t.Fatal(err)
	}
	b := n.(*blocks.Block)
	if b.Op != "reportParallelMap" {
		t.Fatalf("op = %s", b.Op)
	}
	if _, ok := b.Input(0).(blocks.RingNode); !ok {
		t.Error("ring input should be a RingNode for codegen")
	}
}

func TestWhitespaceAndUnicode(t *testing.T) {
	v := evalExpr(t, "(join \"héllo\" \" \" \"wörld\")")
	if v.String() != "héllo wörld" {
		t.Errorf("unicode = %q", v.String())
	}
}

// TestNumberMatchesParseFloat holds the reader's number fast paths to
// strconv.ParseFloat, which decides what a numeric atom is.
func TestNumberMatchesParseFloat(t *testing.T) {
	for _, s := range []string{
		"0", "007", "42", "123456789012345", "1234567890123456", "99999999999999999999",
		"-0", "+5", ".5", "5.", "1e3", "0x1p-2", "1_000", "0x_1p0", "e5", "_1",
		"inf", "INF", "+inf", "Infinity", "-infinity", "infinit", "nan", "NaN", "nan1",
		"i", "n", "in", "x", "$x",
	} {
		got, ok := number(s)
		want, err := strconv.ParseFloat(s, 64)
		if ok != (err == nil) || ok && got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("number(%q) = %v, %v; ParseFloat gives %v, %v", s, got, ok, want, err)
		}
	}
}
