// Package oracle is the cross-tier comparison contract shared by the
// differential test harnesses and the evolutionary stress engine: a
// script's observable behavior — reported value, error text (verbatim),
// final stage snapshot, and stage trace log — rendered to strings so two
// tiers' outcomes compare (and content-address) trivially. Any tier that
// claims to execute the block language must reproduce all four fields
// byte for byte.
//
// The package deliberately stops at the interp/vm layer: callers that
// need the hof/mapReduce/parallel/stage primitives registered (every
// realistic script does) import repro/internal/core for its side effects
// themselves, which keeps oracle importable from internal/compile's own
// tests without an import cycle.
package oracle

import (
	"fmt"

	"strings"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
	"repro/internal/vm"
)

// Outcome is the complete observable behavior of one script execution.
type Outcome struct {
	// Value is the reported value's rendering ("<no value>" when the
	// script reported nothing).
	Value string
	// Err is the run error's text ("<nil>" on success).
	Err string
	// Stage is the final stage snapshot, lines joined with \n.
	Stage string
	// Trace is the stage output log, lines joined with \n.
	Trace string
}

// Key is a content key for the outcome — divergence novelty and corpus
// addressing both hash it.
func (o Outcome) Key() string {
	return o.Value + "\x00" + o.Err + "\x00" + o.Stage + "\x00" + o.Trace
}

// ErrString renders an error for byte-for-byte comparison; nil reads
// "<nil>". A tier must not merely also fail — it must fail with the
// reference tier's words.
func ErrString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// ValString renders a reported value; nil (no report) reads "<no value>".
func ValString(v value.Value) string {
	if v == nil {
		return "<no value>"
	}
	return v.String()
}

// ValuesAgree reports whether two tier results denote the same value:
// structural equality, or failing that identical rendering (the ring
// compiler's contract — interned scalars and adopted lists may differ in
// identity but never in meaning).
func ValuesAgree(a, b value.Value) bool {
	if a == nil || b == nil {
		return ValString(a) == ValString(b)
	}
	return value.Equal(a, b) || a.String() == b.String()
}

// Capture assembles an Outcome from a finished machine run.
func Capture(m *interp.Machine, v value.Value, err error) Outcome {
	o := Outcome{Value: ValString(v), Err: ErrString(err)}
	if m != nil {
		o.Stage = strings.Join(m.Stage.Snapshot(), "\n")
		o.Trace = strings.Join(m.Stage.TraceLines(), "\n")
	}
	return o
}

// RunEngine executes script on a fresh machine with the bytecode engine
// switched on or off, returning the machine for stage inspection. The
// engine is restored to on afterwards (the production default).
func RunEngine(script *blocks.Script, bytecode bool) (value.Value, error, *interp.Machine) {
	vm.SetEnabled(bytecode)
	defer vm.SetEnabled(true)
	m := interp.NewMachine(blocks.NewProject("oracle"), nil)
	v, err := m.RunScript(script)
	return v, err, m
}

// Run is RunEngine rendered down to an Outcome.
func Run(script *blocks.Script, bytecode bool) (Outcome, *interp.Machine) {
	v, err, m := RunEngine(script, bytecode)
	return Capture(m, v, err), m
}

// Diff describes the first divergence between two outcomes, or "" when
// they agree on every observable field.
func Diff(aName string, a Outcome, bName string, b Outcome) string {
	if a.Err != b.Err {
		return fmt.Sprintf("error mismatch:\n %6s: %s\n %6s: %s", aName, a.Err, bName, b.Err)
	}
	if a.Value != b.Value {
		return fmt.Sprintf("value mismatch:\n %6s: %s\n %6s: %s", aName, a.Value, bName, b.Value)
	}
	if a.Stage != b.Stage {
		return fmt.Sprintf("stage mismatch:\n %6s:\n%s\n %6s:\n%s", aName, a.Stage, bName, b.Stage)
	}
	if a.Trace != b.Trace {
		return fmt.Sprintf("trace mismatch:\n %6s:\n%s\n %6s:\n%s", aName, a.Trace, bName, b.Trace)
	}
	return ""
}

// Failer is the subset of testing.TB the assertion helper needs — an
// interface so this package stays importable from non-test binaries
// without linking package testing.
type Failer interface {
	Helper()
	Fatalf(format string, args ...any)
}

// AssertSame runs script under both the tree-walker and the bytecode
// machine and fails on any observable divergence.
func AssertSame(t Failer, script *blocks.Script) {
	t.Helper()
	tree, _ := Run(script, false)
	bc, _ := Run(script, true)
	if d := Diff("tree", tree, "vm", bc); d != "" {
		t.Fatalf("%s", d)
	}
}
