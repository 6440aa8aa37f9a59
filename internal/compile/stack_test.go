package compile

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
)

// TestOperandStack drives bodies that outgrow the environment's inline
// operand buffer — a wide join of sums, and hof bodies whose arguments sit
// on the stack — through the pooled concurrent kernel and through the
// keyed map kernel, whose argument also sits on the stack, with a
// different argument on every call, sequentially and from concurrent
// goroutines. Each result must match the interpreter's.
func TestOperandStack(t *testing.T) {
	parts := make([]blocks.Node, 6)
	for i := range parts {
		parts[i] = blocks.Sum(blocks.Var("x"), blocks.Num(float64(i+1)))
	}
	bodies := []blocks.Node{
		blocks.Join(parts...),
		blocks.Join(blocks.Var("x"), blocks.Num(0), blocks.Combine(
			blocks.Map(blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Var("x"))),
				blocks.Numbers(blocks.Num(1), blocks.Var("x"))),
			blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty())))),
	}
	for _, body := range bodies {
		r := ship(body, "x")
		want := func(x int) string {
			v, err := interp.CallFunction(r, []value.Value{value.NumInt(x)}, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			return v.String()
		}
		fn := mustCompile(t, r)
		mf, ok := MapperRing(r)
		if !ok {
			t.Fatalf("MapperRing refused %s", r)
		}
		keyed := func(args []value.Value) (value.Value, error) {
			k, v, err := mf(args[0])
			if err == nil && k != "" {
				err = fmt.Errorf("scalar result keyed %q, want the shared \"\" key", k)
			}
			return v, err
		}
		for x := 1; x <= 5; x++ {
			w := want(x)
			for name, f := range map[string]Fn{"ring": fn, "keyed": keyed} {
				v, err := f([]value.Value{value.NumInt(x)})
				if err != nil || v.String() != w {
					t.Fatalf("%s(%d) of %s = %v, %v; want %s", name, x, r, v, err, w)
				}
			}
		}
		wants := make([]string, 64)
		for x := range wants {
			wants[x] = want(x + 1)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					x := (g*7+i)%len(wants) + 1
					f := fn
					if i%2 == 1 {
						f = keyed
					}
					v, err := f([]value.Value{value.NumInt(x)})
					if err != nil || v.String() != wants[x-1] {
						errs <- fmt.Errorf("kernel(%d) = %v, %v; want %s", x, v, err, wants[x-1])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestOperandStackBalanced checks the operand stack's invariant directly:
// whatever a body does — fixed or variadic blocks, inner rings, a failing
// child or a failing block — the stack is empty again when it returns, so
// a reused environment neither grows nor leaks values into the next call.
func TestOperandStackBalanced(t *testing.T) {
	x := blocks.Var("x")
	bodies := []blocks.Node{
		blocks.Ternary(blocks.GreaterThan(x, blocks.Num(1)), blocks.Sum(x, blocks.Num(1)), blocks.Num(2)),
		blocks.Join(x, blocks.Sum(x, x), blocks.Round(x), blocks.Num(1), blocks.Product(x, x)),
		blocks.Combine(blocks.Map(blocks.RingOf(blocks.Sum(blocks.Empty(), x)), blocks.ListOf(x, x, x)),
			blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))),
		blocks.Join(x, blocks.Num(1), blocks.Quotient(x, blocks.Num(0)), blocks.Num(2)),
		blocks.Join(x, blocks.Num(1), blocks.Sum(x, blocks.ItemOf(blocks.Num(1), x)), blocks.Num(2)),
		blocks.Sum(x, blocks.LengthOf(x)),
	}
	for _, body := range bodies {
		ex, reason, ok := ringBody(ship(body, "x"))
		if !ok {
			t.Fatalf("refused (%s): %s", reason, body.Describe())
		}
		e := &newRootEnv().env
		e.args = []value.Value{value.Num(3)}
		for i := 0; i < 3; i++ {
			ex(e)
			if len(e.stack) != 0 {
				t.Fatalf("%s left %d values on the operand stack", body.Describe(), len(e.stack))
			}
		}
	}
}
