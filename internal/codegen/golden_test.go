package codegen

import (
	"os"
	"strings"
	"testing"

	"repro/internal/blocks"
)

// The golden test pins every emitter's output, byte for byte, over a fixed
// set of inputs: the C and OpenMP whole-program emitters and the JS, Python
// and Go script translators over each golden script, the four map-program
// dialects over each golden parallelMap block, and the six MapReduceFiles
// artifacts over each golden mapReduce block. Failed emissions are pinned
// by their error text. testdata/emit.golden was generated before the
// translation paths were folded together; goldenChanged lists the only rows
// allowed to differ from it, each a deliberate fix.

type goldenRow struct{ key, body string }

func goldenScripts() []struct {
	name string
	s    *blocks.Script
} {
	return []struct {
		name string
		s    *blocks.Script
	}{
		{"fig16", Figure16Script()},
		{"squares-parallel", parallelSquares(true)},
		{"squares-sequential", parallelSquares(false)},
		{"typed-set", blocks.NewScript(
			blocks.SetVar("i", blocks.Num(5)),
			blocks.SetVar("d", blocks.Num(2.5)),
			blocks.SetVar("s", blocks.Txt("hi")),
			blocks.SetVar("b", blocks.BoolLit(true)),
			blocks.SetVar("il", blocks.ListOf(blocks.Num(1), blocks.Num(2), blocks.Num(3))),
			blocks.SetVar("dl", blocks.ListOf(blocks.Num(1.5), blocks.Num(2))),
			blocks.SetVar("el", blocks.ListOf()),
			blocks.SetVar("tl", blocks.ListOf(blocks.Txt("a"), blocks.Txt("b"))),
			blocks.SetVar("u", blocks.Var("elsewhere")),
			blocks.SetVar("i", blocks.Sum(blocks.Var("i"), blocks.Num(1))),
			blocks.SetVar("q", blocks.Quotient(blocks.Var("i"), blocks.Num(2))),
			blocks.SetVar("r", blocks.Round(blocks.Var("d"))),
			blocks.SetVar("n", blocks.LengthOf(blocks.Var("il"))),
			blocks.SetVar("x", blocks.ItemOf(blocks.Num(1), blocks.Var("dl"))),
			blocks.SetVar("lt", blocks.LessThan(blocks.Var("i"), blocks.Var("n"))),
		)},
		{"set-dynamic-list", blocks.NewScript(blocks.SetVar("dyn", blocks.Numbers(blocks.Num(1), blocks.Num(3))))},
		{"control", blocks.NewScript(
			blocks.DeclareLocal("n"),
			blocks.SetVar("n", blocks.Num(0)),
			blocks.Repeat(blocks.Num(3), blocks.Body(blocks.ChangeVar("n", blocks.Num(1)))),
			blocks.IfElse(blocks.GreaterThan(blocks.Var("n"), blocks.Num(2)), blocks.Body(blocks.Say(blocks.Var("n"))), blocks.Body(blocks.Say(blocks.Num(0)))),
			blocks.Until(blocks.Equals(blocks.Var("n"), blocks.Num(0)), blocks.Body(blocks.ChangeVar("n", blocks.Num(-1)))),
			blocks.If(blocks.Not(blocks.Var("n")), blocks.Body()),
		)},
		{"map-join-split", blocks.NewScript(
			blocks.SetVar("data", blocks.ListOf(blocks.Num(1), blocks.Num(2), blocks.Num(3))),
			blocks.SetVar("m", blocks.Map(blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(2))), blocks.Var("data"))),
			blocks.SetVar("p", blocks.ParallelMap(blocks.RingOf(blocks.Sum(blocks.Var("v"), blocks.Num(1)), "v"), blocks.Var("data"), blocks.Num(4))),
			blocks.SetVar("q", blocks.ParallelMap(blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Num(1))), blocks.Var("data"), blocks.Empty())),
			blocks.SetVar("w", blocks.Join(blocks.Txt("a"), blocks.Txt("b"))),
			blocks.SetVar("parts", blocks.Split(blocks.Txt("a b"), blocks.Txt(" "))),
			blocks.Say(blocks.Var("w")),
		)},
		{"modulus", blocks.NewScript(blocks.Say(blocks.Modulus(blocks.Num(7), blocks.Num(-3))), blocks.Say(blocks.Modulus(blocks.Num(-7), blocks.Num(3))))},
		{"map-command-ring", blocks.NewScript(blocks.Say(blocks.Map(blocks.RingScript(blocks.NewScript(blocks.Stop())), blocks.Var("data"))))},
		{"map-two-params", blocks.NewScript(blocks.Say(blocks.Map(blocks.RingOf(blocks.Sum(blocks.Var("k"), blocks.Var("j")), "k", "j"), blocks.Var("data"))))},
	}
}

func goldenMapBlocks() []struct {
	name string
	b    *blocks.Block
} {
	data := blocks.ListOf(blocks.Num(1))
	return []struct {
		name string
		b    *blocks.Block
	}{
		{"times10", times10MapBlock()},
		{"named-param", blocks.ParallelMap(blocks.RingOf(blocks.Sum(blocks.Var("t"), blocks.Num(1)), "t"), data, blocks.Num(2))},
		{"sqrt", blocks.ParallelMap(blocks.RingOf(blocks.Monadic("sqrt", blocks.Empty())), data, blocks.Empty())},
		{"two-params", blocks.ParallelMap(blocks.RingOf(blocks.Sum(blocks.Var("k"), blocks.Var("j")), "k", "j"), data, blocks.Num(2))},
		{"command-ring", blocks.ParallelMap(blocks.RingScript(blocks.NewScript(blocks.Stop())), data, blocks.Num(2))},
		{"not-a-ring", blocks.ParallelMap(blocks.Num(1), data, blocks.Num(2))},
		{"not-parallelMap", blocks.Sum(blocks.Num(1), blocks.Num(2))},
	}
}

func goldenMapReduceBlocks() []struct {
	name string
	b    *blocks.Block
} {
	sum := blocks.RingOf(blocks.Combine(blocks.Empty(), blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))))
	count := blocks.RingOf(blocks.LengthOf(blocks.Empty()))
	return []struct {
		name string
		b    *blocks.Block
	}{
		{"climate", climateBlock()},
		{"named-sum", blocks.MapReduce(blocks.RingOf(blocks.Product(blocks.Var("n"), blocks.Num(2)), "n"), sum, blocks.ListOf())},
		{"count", blocks.MapReduce(f2cRing(), count, blocks.ListOf())},
		{"two-params", blocks.MapReduce(blocks.RingOf(blocks.Sum(blocks.Var("k"), blocks.Var("j")), "k", "j"), sum, blocks.ListOf())},
		{"command-ring", blocks.MapReduce(blocks.RingScript(blocks.NewScript(blocks.Stop())), sum, blocks.ListOf())},
		{"not-a-ring", blocks.MapReduce(blocks.Num(1), sum, blocks.ListOf())},
	}
}

// goldenRows runs every emitter over the golden inputs.
func goldenRows() []goldenRow {
	var rows []goldenRow
	add := func(key, src string, err error) {
		if err != nil {
			src = "error: " + err.Error()
		}
		rows = append(rows, goldenRow{key, src})
	}
	for _, sc := range goldenScripts() {
		src, err := NewCEmitter().Program(sc.s)
		add("script/"+sc.name+"/c", src, err)
		src, err = NewOpenMPEmitter().Program(sc.s)
		add("script/"+sc.name+"/openmp", src, err)
		for _, lang := range []*Lang{JSLang(), PythonLang(), GoLang()} {
			src, err := New(lang).Script(sc.s, 0)
			add("script/"+sc.name+"/"+lang.Name, src, err)
		}
	}
	data := []float64{3, 7.5, -2, 1e21}
	for _, mb := range goldenMapBlocks() {
		src, err := SequentialMapProgram(mb.b, data)
		add("map/"+mb.name+"/sequential", src, err)
		src, err = ParallelMapProgram(mb.b, data, 4)
		add("map/"+mb.name+"/openmp", src, err)
		src, err = PthreadsParallelMapProgram(mb.b, data, 4)
		add("map/"+mb.name+"/pthreads", src, err)
		src, err = GoParallelMapProgram(mb.b, data, 4)
		add("map/"+mb.name+"/go", src, err)
	}
	for _, mr := range goldenMapReduceBlocks() {
		files, err := MapReduceFiles(mr.b, []float64{32, 212, 122.5}, 2)
		if err != nil {
			add("mapreduce/"+mr.name, "", err)
			continue
		}
		for _, name := range []string{"kvp.h", "mapreduce.c", "main.c", "runnable.c", "Makefile", "job.sbatch"} {
			add("mapreduce/"+mr.name+"/"+name, files[name], nil)
		}
	}
	return rows
}

// parseGolden reads the golden file: each row is "=== <key>\n", then the
// body, then "\n".
func parseGolden(s string) map[string]string {
	rows := map[string]string{}
	s = strings.TrimSuffix(strings.TrimPrefix(s, "=== "), "\n")
	for _, part := range strings.Split(s, "\n=== ") {
		key, body, _ := strings.Cut(part, "\n")
		rows[key] = body
	}
	return rows
}

// goldenChanged holds the rows that deliberately differ from
// testdata/emit.golden, with their expected bodies.
var goldenChanged = map[string]string{
	// C's mod is floored like Snap!'s: 7 mod -3 is -2, not 1.
	"script/modulus/c":      cModulusProgram,
	"script/modulus/openmp": cModulusProgram,
	// A command ring is refused by name instead of failing on its script.
	"script/map-command-ring/js":     "error: map ring must be a reporter",
	"script/map-command-ring/python": "error: map ring must be a reporter",
	"map/command-ring/sequential":    "error: map ring must be a reporter",
	"map/command-ring/openmp":        "error: map ring must be a reporter",
	"map/command-ring/pthreads":      "error: map ring must be a reporter",
	"map/command-ring/go":            "error: map ring must be a reporter",
	"mapreduce/command-ring":         "error: map ring must be a reporter",
	// A ring of two inputs is refused instead of emitting unbound names.
	"script/map-two-params/js":     "error: map ring must take one input",
	"script/map-two-params/python": "error: map ring must take one input",
	"map/two-params/sequential":    "error: map ring must take one input",
	"map/two-params/openmp":        "error: map ring must take one input",
	"map/two-params/pthreads":      "error: map ring must take one input",
	"map/two-params/go":            "error: map ring must take one input",
}

const cModulusProgram = `#include <stdio.h>
#include <stdlib.h>

int main()
{
    printf("%g\n", (double)((((7 % -3) + -3) % -3)));
    printf("%g\n", (double)((((-7 % 3) + 3) % 3)));
    return (0);
}
`

func TestEmitGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/emit.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := parseGolden(string(data))
	rows := goldenRows()
	if len(rows) != len(golden) {
		t.Errorf("%d rows emitted, %d in the golden file", len(rows), len(golden))
	}
	for _, r := range rows {
		want, ok := golden[r.key]
		if !ok {
			t.Errorf("row %s is missing from the golden file", r.key)
			continue
		}
		if fixed, changed := goldenChanged[r.key]; changed {
			if fixed == want {
				t.Errorf("row %s is listed as changed but matches the golden file", r.key)
			}
			want = fixed
		}
		if r.body != want {
			t.Errorf("row %s differs:\n--- got ---\n%s\n--- want ---\n%s", r.key, r.body, want)
		}
	}
}
