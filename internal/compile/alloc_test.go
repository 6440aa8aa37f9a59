package compile

import (
	"testing"

	"repro/internal/blocks"
	"repro/internal/value"
)

// TestKernelAllocs pins the per-call allocation count of a compiled
// arithmetic kernel: block application passes its evaluated inputs to the
// shared primitive table without boxing a fresh argument slice per block,
// and the call's environment comes from a pool.
func TestKernelAllocs(t *testing.T) {
	r := ship(blocks.Modulus(
		blocks.Product(blocks.Sum(blocks.Var("x"), blocks.Num(1)), blocks.Num(2)),
		blocks.Num(7)), "x")
	fn := mustCompile(t, r)
	args := []value.Value{value.Num(3)}
	if got := call(t, fn, args...); got.String() != "1" {
		t.Fatalf("((3 + 1) * 2) mod 7 = %s, want 1", got)
	}
	const want = 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := fn(args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != want {
		t.Fatalf("compiled ((x + 1) * 2) mod 7: %v allocs per call, want %d", allocs, want)
	}
}
