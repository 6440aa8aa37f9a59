// Differential harness: every script in the corpus runs once on the
// tree-walker and once on the bytecode machine, and the two executions must
// agree on the reported value, the error string (verbatim), the stage
// snapshot, and the trace log. This is the contract the lowering pass is
// held to — identical observable behavior, including failure text. The
// comparison machinery itself lives in internal/evo/oracle, shared with
// the compile differential test and the evolutionary stress engine.
package vm_test

import (
	"testing"

	"repro/internal/blocks"
	_ "repro/internal/core" // hof, mapReduce, parallel and stage primitives
	"repro/internal/evo/oracle"
	"repro/internal/parse"
)

func rep(b *blocks.Block) *blocks.Script {
	return blocks.NewScript(blocks.Report(b))
}

func sumRing() blocks.Node {
	return blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))
}

func wordCount(sentence string) *blocks.Block {
	return blocks.MapReduce(
		blocks.RingOf(blocks.ListOf(blocks.Empty(), blocks.Num(1))),
		blocks.RingOf(blocks.Combine(blocks.Empty(), sumRing())),
		blocks.Split(blocks.Txt(sentence), blocks.Txt(" ")))
}

func TestDifferentialCorpus(t *testing.T) {
	cases := []struct {
		name   string
		script *blocks.Script
	}{
		{"arith-folded", rep(blocks.Sum(
			blocks.Product(blocks.Num(2), blocks.Num(3)),
			blocks.Quotient(blocks.Num(10), blocks.Num(4))))},
		{"arith-mod-round", rep(blocks.Sum(
			blocks.Modulus(blocks.Num(17), blocks.Num(5)),
			blocks.Round(blocks.Num(2.5))))},
		{"monadic", rep(blocks.Monadic("sqrt", blocks.Num(2)))},
		{"text", rep(blocks.Join(
			blocks.Letter(blocks.Num(2), blocks.Txt("hello")),
			blocks.StringSize(blocks.Txt("world")),
			blocks.Split(blocks.Txt("a,b"), blocks.Txt(","))))},
		{"logic", rep(blocks.Ternary(
			blocks.And(
				blocks.LessThan(blocks.Num(1), blocks.Num(2)),
				blocks.Not(blocks.Equals(blocks.Txt("a"), blocks.Txt("b")))),
			blocks.Txt("yes"), blocks.Txt("no")))},
		{"vars", blocks.NewScript(
			blocks.DeclareLocal("x"),
			blocks.SetVar("x", blocks.Num(5)),
			blocks.ChangeVar("x", blocks.Num(2.5)),
			blocks.Report(blocks.Var("x")))},
		{"if-else", blocks.NewScript(
			blocks.DeclareLocal("x"),
			blocks.SetVar("x", blocks.Num(0)),
			blocks.If(blocks.GreaterThan(blocks.Num(3), blocks.Num(1)),
				blocks.Body(blocks.ChangeVar("x", blocks.Num(1)))),
			blocks.IfElse(blocks.LessThan(blocks.Num(3), blocks.Num(1)),
				blocks.Body(blocks.SetVar("x", blocks.Num(-1))),
				blocks.Body(blocks.ChangeVar("x", blocks.Num(10)))),
			blocks.Report(blocks.Var("x")))},
		{"repeat", blocks.NewScript(
			blocks.DeclareLocal("x"),
			blocks.SetVar("x", blocks.Num(1)),
			blocks.Repeat(blocks.Num(6),
				blocks.Body(blocks.SetVar("x",
					blocks.Product(blocks.Var("x"), blocks.Num(2))))),
			blocks.Report(blocks.Var("x")))},
		{"for", blocks.NewScript(
			blocks.DeclareLocal("s"),
			blocks.SetVar("s", blocks.Num(0)),
			blocks.For("i", blocks.Num(1), blocks.Num(10),
				blocks.Body(blocks.ChangeVar("s", blocks.Var("i")))),
			blocks.Report(blocks.Var("s")))},
		{"until", blocks.NewScript(
			blocks.DeclareLocal("n"),
			blocks.SetVar("n", blocks.Num(10)),
			blocks.Until(blocks.LessThan(blocks.Var("n"), blocks.Num(1)),
				blocks.Body(blocks.ChangeVar("n", blocks.Num(-3)))),
			blocks.Report(blocks.Var("n")))},
		{"warp-until", blocks.NewScript(
			// Regression: a warped until used to hang the tree-walker
			// (the body's Nothing result landed in the cleared condition
			// slot) while the vm ran it fine — the first divergence the
			// evo engine found.
			blocks.DeclareLocal("n"),
			blocks.Warp(blocks.Body(
				blocks.SetVar("n", blocks.Num(5)),
				blocks.Until(blocks.LessThan(blocks.Var("n"), blocks.Num(0)),
					blocks.Body(blocks.ChangeVar("n", blocks.Num(-1)))))),
			blocks.Report(blocks.Var("n")))},
		{"foreach", blocks.NewScript(
			blocks.DeclareLocal("s"),
			blocks.SetVar("s", blocks.Txt("")),
			blocks.ForEach("w",
				blocks.ListOf(blocks.Txt("a"), blocks.Txt("b"), blocks.Txt("c")),
				blocks.Body(blocks.SetVar("s",
					blocks.Join(blocks.Var("s"), blocks.Var("w"))))),
			blocks.Report(blocks.Var("s")))},
		{"warp", blocks.NewScript(
			blocks.DeclareLocal("x"),
			blocks.SetVar("x", blocks.Num(0)),
			blocks.Warp(blocks.Body(
				blocks.Repeat(blocks.Num(100),
					blocks.Body(blocks.ChangeVar("x", blocks.Num(1)))))),
			blocks.Report(blocks.Var("x")))},
		{"self-referential-list", blocks.NewScript(
			// Regression: a list added to itself used to blow the stack
			// in value.List.String (unrecoverable, killing the whole
			// process) — found by the evo engine's make-check soak. The
			// cycle must render as a [...] back-reference on both tiers.
			blocks.DeclareLocal("l"),
			blocks.SetVar("l", blocks.ListOf(blocks.Num(1), blocks.Num(2))),
			blocks.AddToList(blocks.Var("l"), blocks.Var("l")),
			blocks.Report(blocks.Var("l")))},
		{"lists", blocks.NewScript(
			blocks.DeclareLocal("l"),
			blocks.SetVar("l", blocks.Numbers(blocks.Num(1), blocks.Num(5))),
			blocks.AddToList(blocks.Num(99), blocks.Var("l")),
			blocks.DeleteFromList(blocks.Num(1), blocks.Var("l")),
			blocks.InsertInList(blocks.Num(7), blocks.Num(2), blocks.Var("l")),
			blocks.ReplaceInList(blocks.Num(3), blocks.Var("l"), blocks.Txt("x")),
			blocks.Report(blocks.Join(
				blocks.Var("l"),
				blocks.LengthOf(blocks.Var("l")),
				blocks.ItemOf(blocks.Num(2), blocks.Var("l")),
				blocks.ListContains(blocks.Var("l"), blocks.Num(99)))))},
		{"stop-this", blocks.NewScript(
			blocks.DeclareLocal("x"),
			blocks.SetVar("x", blocks.Num(1)),
			blocks.Stop(),
			blocks.SetVar("x", blocks.Num(2)),
			blocks.Report(blocks.Var("x")))},
		{"hof-map", rep(blocks.Map(
			blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(10))),
			blocks.Numbers(blocks.Num(1), blocks.Num(20))))},
		{"hof-keep", rep(blocks.Keep(
			blocks.RingOf(blocks.GreaterThan(blocks.Empty(), blocks.Num(5))),
			blocks.Numbers(blocks.Num(1), blocks.Num(12))))},
		{"hof-combine", rep(blocks.Combine(
			blocks.Numbers(blocks.Num(1), blocks.Num(50)), sumRing()))},
		{"ring-call", rep(blocks.Call(
			blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty())),
			blocks.Num(3), blocks.Num(4)))},
		{"mapreduce-wordcount", rep(wordCount("the quick fox the lazy dog the end"))},
		{"mapreduce-climate", rep(blocks.MapReduce(
			blocks.RingOf(blocks.Quotient(
				blocks.Product(blocks.Num(5),
					blocks.Difference(blocks.Empty(), blocks.Num(32))),
				blocks.Num(9))),
			blocks.RingOf(blocks.Quotient(
				blocks.Combine(blocks.Empty(), sumRing()),
				blocks.LengthOf(blocks.Empty()))),
			blocks.ListOf(blocks.Num(32), blocks.Num(212), blocks.Num(122))))},
		{"mapreduce-async", rep(blocks.MapReduce(
			blocks.RingOf(blocks.ListOf(
				blocks.Modulus(blocks.Empty(), blocks.Num(7)), blocks.Num(1))),
			blocks.RingOf(blocks.Combine(blocks.Empty(), sumRing())),
			blocks.Numbers(blocks.Num(1), blocks.Num(200))))},
		{"mapreduce-dynamic-ring", blocks.NewScript(
			blocks.DeclareLocal("r"),
			blocks.SetVar("r", blocks.RingOf(
				blocks.Product(blocks.Empty(), blocks.Num(10)))),
			blocks.Report(blocks.MapReduce(
				blocks.Var("r"),
				blocks.RingOf(blocks.LengthOf(blocks.Empty())),
				blocks.Numbers(blocks.Num(1), blocks.Num(8)))))},
		{"splice-stage", blocks.NewScript(
			blocks.DeclareLocal("x"),
			blocks.SetVar("x", blocks.Num(1)),
			blocks.Forward(blocks.Num(10)),
			blocks.TurnRight(blocks.Num(90)),
			blocks.Forward(blocks.Num(5)),
			blocks.ChangeVar("x", blocks.Num(41)),
			blocks.Report(blocks.Var("x")))},
		{"columnar-upgrade", blocks.NewScript(
			// numbers-from now builds a columnar list; replacing an item
			// with text upgrades it to boxed mid-script, and every list
			// primitive must observe the same contents on both tiers.
			blocks.DeclareLocal("l"),
			blocks.SetVar("l", blocks.Numbers(blocks.Num(1), blocks.Num(40))),
			blocks.ReplaceInList(blocks.Num(10), blocks.Var("l"), blocks.Txt("ten")),
			blocks.AddToList(blocks.Txt("tail"), blocks.Var("l")),
			blocks.Report(blocks.Join(
				blocks.LengthOf(blocks.Var("l")),
				blocks.ItemOf(blocks.Num(10), blocks.Var("l")),
				blocks.ItemOf(blocks.Num(41), blocks.Var("l")),
				blocks.ListContains(blocks.Var("l"), blocks.Txt("ten")))))},
		{"columnar-mutate-mid-foreach", blocks.NewScript(
			// Mutating the list being iterated — including the column→boxed
			// upgrade happening mid-iteration — must behave identically.
			blocks.DeclareLocal("l"),
			blocks.DeclareLocal("s"),
			blocks.SetVar("l", blocks.Numbers(blocks.Num(1), blocks.Num(6))),
			blocks.SetVar("s", blocks.Txt("")),
			blocks.ForEach("x", blocks.Var("l"), blocks.Body(
				blocks.If(blocks.Equals(blocks.Var("x"), blocks.Num(3)),
					blocks.Body(blocks.ReplaceInList(
						blocks.Num(5), blocks.Var("l"), blocks.Txt("five")))),
				blocks.SetVar("s", blocks.Join(blocks.Var("s"), blocks.Var("x"), blocks.Txt("."))))),
			blocks.Report(blocks.Join(blocks.Var("s"), blocks.Var("l"))))},
		{"splice-gotoxy-loop", blocks.NewScript(
			blocks.Repeat(blocks.Num(4), blocks.Body(
				blocks.Forward(blocks.Num(25)),
				blocks.TurnRight(blocks.Num(90)))),
			blocks.GotoXY(blocks.Num(7), blocks.Num(-3)),
			blocks.Report(blocks.Txt("done")))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { oracle.AssertSame(t, tc.script) })
	}
}

// TestDifferentialErrors pins failure text: the bytecode machine must
// produce the tree-walker's exact error strings, whether the failure is in
// a lowered opcode, a spliced tree call, or the mapReduce engine.
func TestDifferentialErrors(t *testing.T) {
	cases := []struct {
		name   string
		script *blocks.Script
	}{
		{"division-by-zero", rep(blocks.Quotient(blocks.Num(1), blocks.Num(0)))},
		{"modulus-by-zero", rep(blocks.Modulus(blocks.Num(1), blocks.Num(0)))},
		{"unset-variable", blocks.NewScript(
			blocks.Report(blocks.Var("nope")))},
		{"item-out-of-range", rep(blocks.ItemOf(
			blocks.Num(9), blocks.ListOf(blocks.Num(1))))},
		{"mapreduce-nonring-map", rep(blocks.MapReduce(
			blocks.Num(1), sumRing(), blocks.ListOf()))},
		{"mapreduce-nonring-reduce", rep(blocks.MapReduce(
			sumRing(), blocks.Num(1), blocks.ListOf()))},
		{"mapreduce-nonlist-input", rep(blocks.MapReduce(
			sumRing(), sumRing(), blocks.Num(1)))},
		{"mapreduce-map-error", rep(blocks.MapReduce(
			blocks.RingOf(blocks.Quotient(blocks.Empty(), blocks.Num(0))),
			sumRing(),
			blocks.ListOf(blocks.Num(1), blocks.Num(2))))},
		{"mapreduce-reduce-error", rep(blocks.MapReduce(
			blocks.RingOf(blocks.ListOf(blocks.Empty(), blocks.Num(1))),
			blocks.RingOf(blocks.Quotient(blocks.Num(1), blocks.Num(0))),
			blocks.ListOf(blocks.Txt("a"), blocks.Txt("b"))))},
		{"mapreduce-async-map-error", rep(blocks.MapReduce(
			blocks.RingOf(blocks.Quotient(blocks.Num(1),
				blocks.Difference(blocks.Empty(), blocks.Num(70)))),
			sumRing(),
			blocks.Numbers(blocks.Num(1), blocks.Num(100))))},
		{"hof-map-nonring", rep(blocks.Map(
			blocks.Num(1), blocks.ListOf(blocks.Num(1))))},
		{"numbers-from-infinity", rep(blocks.Numbers(
			// Regression: "Infinity" used to parse to +Inf, whose span
			// truncated to a negative int and allocated until OOM. Every
			// tier must now reject it with the same wording.
			blocks.Num(1), blocks.Txt("Infinity")))},
		{"numbers-overflow-bound", rep(blocks.Numbers(
			// Arithmetic can still produce a non-finite bound even though
			// text no longer can; the finite-bounds guard catches it.
			blocks.Num(1),
			blocks.Product(blocks.Num(1e308), blocks.Num(10))))},
		{"numbers-huge-span", rep(blocks.Numbers(
			blocks.Num(1), blocks.Num(1e18)))},
		{"error-inside-loop", blocks.NewScript(
			blocks.DeclareLocal("x"),
			blocks.SetVar("x", blocks.Num(3)),
			blocks.Until(blocks.LessThan(blocks.Var("x"), blocks.Num(0)),
				blocks.Body(
					blocks.SetVar("x", blocks.Difference(blocks.Var("x"), blocks.Num(1))),
					blocks.If(blocks.Equals(blocks.Var("x"), blocks.Num(1)),
						blocks.Body(blocks.SetVar("x",
							blocks.Quotient(blocks.Num(1), blocks.Num(0))))))),
			blocks.Report(blocks.Var("x")))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle.AssertSame(t, tc.script)
			// The case exists to pin an error; make sure there is one.
			if out, _ := oracle.Run(tc.script, true); out.Err == "<nil>" {
				t.Fatal("expected an error, got none")
			}
		})
	}
}

// TestDifferentialMapReduceAsyncValue pins the async (polled) mapReduce
// path's value: an input past the sync threshold runs on worker goroutines
// while the bytecode loop's tree splice polls the job, and the sorted
// result must match the tree primitive's byte for byte.
func TestDifferentialMapReduceAsyncValue(t *testing.T) {
	script := rep(blocks.MapReduce(
		blocks.RingOf(blocks.ListOf(
			blocks.Modulus(blocks.Empty(), blocks.Num(3)), blocks.Num(1))),
		blocks.RingOf(blocks.Combine(blocks.Empty(), sumRing())),
		blocks.Numbers(blocks.Num(1), blocks.Num(300))))
	out, _ := oracle.Run(script, true)
	if out.Err != "<nil>" {
		t.Fatal(out.Err)
	}
	if out.Value != "[[0 100] [1 100] [2 100]]" {
		t.Fatalf("async mapReduce = %s", out.Value)
	}
	oracle.AssertSame(t, script)
}

// TestSnapshotNegativeZero pins the stage snapshot's -0 fix on both
// tiers: a sprite just left of and below the origin rounds to 0 at two
// decimals and reads 0, as Snap! and value.Number print it, not -0.
func TestSnapshotNegativeZero(t *testing.T) {
	script, err := parse.Script("(goto -0.001 0.001) (forward 0) (goto -0.004 -0.002)")
	if err != nil {
		t.Fatal(err)
	}
	for _, bytecode := range []bool{false, true} {
		if out, _ := oracle.Run(script, bytecode); out.Stage != "__main__@(0,0)" {
			t.Errorf("bytecode=%v: stage %q, want __main__@(0,0)", bytecode, out.Stage)
		}
	}
	oracle.AssertSame(t, script)
}
