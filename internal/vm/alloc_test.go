package vm

import (
	"testing"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
)

// TestPrimOpAllocs pins the allocation count of one lowered loop step,
// `set v to (v + 1)`: a table-driven operator applies to operands on the
// value stack, so the step allocates nothing.
func TestPrimOpAllocs(t *testing.T) {
	prog := LowerScript(blocks.NewScript(
		blocks.SetVar("v", blocks.Sum(blocks.Var("v"), blocks.Num(1)))))
	if prog == nil || prog.TreeStmts != 0 {
		t.Fatal("set v to (v + 1) did not lower to bytecode")
	}
	f := interp.NewFrame(nil)
	f.Declare("v", value.Num(0))
	var r run
	r.prog = prog
	r.frame = f
	step := func() {
		r.stack = r.stack0[:0]
		r.pc, r.halted = 0, false
		for !r.halted {
			op := prog.Ops[r.pc]
			r.pc++
			if err := r.exec1(nil, op); err != nil {
				t.Fatal(err)
			}
		}
	}
	step()
	if v, _ := f.Get("v"); v.String() != "1" {
		t.Fatalf("v = %s after one step, want 1", v)
	}
	const want = 0
	allocs := testing.AllocsPerRun(1000, func() {
		f.Set("v", value.Num(0))
		step()
	})
	if allocs != want {
		t.Fatalf("lowered set v to (v + 1): %v allocs per step, want %d", allocs, want)
	}
}
