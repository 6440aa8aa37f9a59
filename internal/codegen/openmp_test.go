package codegen

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blocks"
)

// f2cRing is the Figure 19 mapper: ((5 × (_ − 32)) ÷ 9).
func f2cRing() blocks.RingNode {
	return blocks.RingOf(
		blocks.Quotient(
			blocks.Product(blocks.Num(5),
				blocks.Difference(blocks.Empty(), blocks.Num(32))),
			blocks.Num(9))).(blocks.RingNode)
}

// avgRing is the Figure 20 reducer: sum-combine over the values divided by
// their count.
func avgRing() blocks.RingNode {
	return blocks.RingOf(
		blocks.Quotient(
			blocks.Combine(blocks.Empty(),
				blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))),
			blocks.LengthOf(blocks.Empty()))).(blocks.RingNode)
}

func climateBlock() *blocks.Block {
	return blocks.MapReduce(f2cRing(), avgRing(),
		blocks.ListOf(blocks.Num(32), blocks.Num(212), blocks.Num(122)))
}

// TestFigure19MapperCode checks the mapper translation against the exact
// expression of Figure 19: out->val = ((5 * (in->val - 32)) / 9).
func TestFigure19MapperCode(t *testing.T) {
	expr, err := MapperCode(f2cRing())
	if err != nil {
		t.Fatal(err)
	}
	// Our quotient mapping inserts a double cast for C integer-division
	// safety; strip it for the landmark comparison.
	normalized := strings.ReplaceAll(expr, "(double)(9)", "9")
	if normalized != "((5 * (in->val - 32)) / 9)" {
		t.Errorf("mapper = %q, want Figure 19's ((5 * (in->val - 32)) / 9)", expr)
	}
}

func TestMapperCodeNamedParam(t *testing.T) {
	ring := blocks.RingOf(blocks.Sum(blocks.Var("t"), blocks.Num(1)), "t").(blocks.RingNode)
	expr, err := MapperCode(ring)
	if err != nil {
		t.Fatal(err)
	}
	if expr != "(in->val + 1)" {
		t.Errorf("named-param mapper = %q", expr)
	}
	bad := blocks.RingOf(blocks.Empty(), "a", "b").(blocks.RingNode)
	if _, err := MapperCode(bad); err == nil {
		t.Error("two-parameter mapper should be rejected")
	}
}

func TestClassifyReducer(t *testing.T) {
	if k := ClassifyReducer(avgRing()); k != ReduceAvg {
		t.Errorf("avg ring classified as %v", k)
	}
	sum := blocks.RingOf(blocks.Combine(blocks.Empty(),
		blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty())))).(blocks.RingNode)
	if k := ClassifyReducer(sum); k != ReduceSum {
		t.Errorf("sum ring classified as %v", k)
	}
	count := blocks.RingOf(blocks.LengthOf(blocks.Empty())).(blocks.RingNode)
	if k := ClassifyReducer(count); k != ReduceCount {
		t.Errorf("count ring classified as %v", k)
	}
	odd := blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(2))).(blocks.RingNode)
	if k := ClassifyReducer(odd); k != ReduceUnknown {
		t.Errorf("odd ring classified as %v", k)
	}
	if ReduceAvg.String() != "avg" || ReduceUnknown.String() != "unknown" {
		t.Error("reduce kind names")
	}
}

// TestListing6and7 is experiment E8: the generated map/reduce functions
// file and driver must carry the structural landmarks of Listings 6 and 7.
func TestListing6and7(t *testing.T) {
	files, err := MapReduceFiles(climateBlock(), []float64{32, 212, 122}, 4)
	if err != nil {
		t.Fatal(err)
	}
	l6 := files["mapreduce.c"]
	for _, want := range []string{
		`#include "kvp.h"`,
		"float avg(float *a, size_t count) {",
		"return (*a + ((count-1)*avg(a+1,count-1))/count);",
		"int map (KVP *in, KVP *out) {",
		"strncpy (out->key, in->key, MAXKEY);",
		"out->val = ((5 * (in->val - 32)) / (double)(9));",
		"int reduce (KVP *in, KVP *out) {",
		"out->val = avg(in->val);",
	} {
		if !strings.Contains(l6, want) {
			t.Errorf("Listing 6 missing %q\n%s", want, l6)
		}
	}
	l7 := files["main.c"]
	for _, want := range []string{
		"/* OpenMP driver for Parallel Snap! MapReduce code output. */",
		"#include <omp.h>",
		"KVP *inputlist, *midlist, *outputlist;",
		"#pragma omp parallel for shared(nkvp, inputlist, midlist)",
		"qsort(midlist, nkvp, sizeof(KVP), compare);",
		"#pragma omp parallel for shared(nkvp, midlist, outputlist)",
		"free(inputlist);",
	} {
		if !strings.Contains(l7, want) {
			t.Errorf("Listing 7 missing %q", want)
		}
	}
	if !strings.Contains(files["kvp.h"], "typedef struct KVP") {
		t.Error("kvp.h missing the record type")
	}
	if !strings.Contains(files["Makefile"], "-fopenmp") {
		t.Error("Makefile must link OpenMP")
	}
	for _, want := range []string{"#SBATCH --job-name=snap-mapreduce", "OMP_NUM_THREADS=4", "--cpus-per-task=4"} {
		if !strings.Contains(files["job.sbatch"], want) {
			t.Errorf("batch script missing %q", want)
		}
	}
}

func TestMapReduceFilesErrors(t *testing.T) {
	cases := []struct {
		b    *blocks.Block
		want string
	}{
		{blocks.Sum(blocks.Num(1), blocks.Num(2)), `expected a mapReduce block, got "reportSum"`},
		{blocks.MapReduce(blocks.Num(1), avgRing(), blocks.ListOf()), "mapReduce's first input must be a ring"},
		{blocks.MapReduce(f2cRing(), blocks.Num(1), blocks.ListOf()), "mapReduce's second input must be a ring"},
		{blocks.MapReduce(blocks.RingScript(blocks.NewScript(blocks.Stop())), avgRing(), blocks.ListOf()),
			"map ring must be a reporter"},
		{blocks.MapReduce(blocks.RingOf(blocks.Sum(blocks.Var("k"), blocks.Var("j")), "k", "j"), avgRing(), blocks.ListOf()),
			"map ring must take one input"},
		{blocks.MapReduce(f2cRing(), blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(2))), blocks.ListOf()),
			"unrecognized reduce ring shape: supported are average, sum, and count"},
	}
	for _, c := range cases {
		if _, err := MapReduceFiles(c.b, nil, 1); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.b.Describe(), err, c.want)
		}
	}
}

func TestParallelMapProgram(t *testing.T) {
	b := blocks.ParallelMap(
		blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(10))),
		blocks.ListOf(blocks.Num(3), blocks.Num(7), blocks.Num(8)),
		blocks.Num(4))
	src, err := ParallelMapProgram(b, []float64{3, 7, 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"#pragma omp parallel for shared(in, out)",
		"return (x * 10);",
		"omp_set_num_threads(4);",
		"static double in[] = { 3, 7, 8 };",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q in:\n%s", want, src)
		}
	}
	if _, err := ParallelMapProgram(blocks.Sum(blocks.Num(1), blocks.Num(1)), nil, 1); err == nil {
		t.Error("non-parallelMap block should error")
	}
}

func TestListings3And4Present(t *testing.T) {
	if !strings.Contains(Listing3, `printf(" hello(%d), ", ID);`) {
		t.Error("Listing 3 shape")
	}
	if !strings.Contains(Listing4, "#pragma omp parallel") ||
		!strings.Contains(Listing4, "omp_get_thread_num()") {
		t.Error("Listing 4 shape")
	}
}

// compileC compiles and runs a C source with the host toolchain; the test
// is skipped when no compiler or OpenMP support is available.
func compileAndRun(t *testing.T, src string, flags ...string) string {
	t.Helper()
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler on host")
	}
	dir := t.TempDir()
	cfile := filepath.Join(dir, "prog.c")
	if err := os.WriteFile(cfile, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "prog")
	args := append([]string{"-O1", "-o", bin, cfile, "-lm"}, flags...)
	out, err := exec.Command(cc, args...).CombinedOutput()
	if err != nil {
		if strings.Contains(string(out), "fopenmp") {
			t.Skip("host compiler lacks OpenMP support")
		}
		t.Fatalf("compile failed: %v\n%s\n--- source ---\n%s", err, out, src)
	}
	run, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, run)
	}
	return string(run)
}

// TestListing5Compiles compiles and runs the generated Listing 5 C with the
// host gcc — the generated code must be real C, not pseudo-code.
func TestListing5Compiles(t *testing.T) {
	src, err := Listing5()
	if err != nil {
		t.Fatal(err)
	}
	compileAndRun(t, src) // exit 0 is the assertion (return (0))
}

// TestRunnableOpenMPProgram compiles the runnable MapReduce program with
// -fopenmp and checks the computed climate average: (0+100+50)/3 = 50.
func TestRunnableOpenMPProgram(t *testing.T) {
	files, err := MapReduceFiles(climateBlock(), []float64{32, 212, 122}, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := compileAndRun(t, files["runnable.c"], "-fopenmp")
	if !strings.Contains(out, "50") {
		t.Errorf("runnable MapReduce printed %q, want the 50°C average", out)
	}
}

// TestParallelMapProgramCompiles compiles and runs the OpenMP translation
// of the Figure 5 parallelMap: outputs 30, 70, 80.
func TestParallelMapProgramCompiles(t *testing.T) {
	b := blocks.ParallelMap(
		blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(10))),
		blocks.ListOf(blocks.Num(3), blocks.Num(7), blocks.Num(8)),
		blocks.Num(4))
	src, err := ParallelMapProgram(b, []float64{3, 7, 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := compileAndRun(t, src, "-fopenmp")
	if !strings.Contains(out, "30") || !strings.Contains(out, "70") || !strings.Contains(out, "80") {
		t.Errorf("OpenMP parallelMap printed %q, want 30 70 80", out)
	}
}

// TestCModulusFloored runs Snap!'s mod through generated C: the result
// takes the divisor's sign, as in Snap! and the JavaScript mapping.
func TestCModulusFloored(t *testing.T) {
	src, err := NewCEmitter().Program(blocks.NewScript(
		blocks.Say(blocks.Modulus(blocks.Num(7), blocks.Num(-3))),
		blocks.Say(blocks.Modulus(blocks.Num(-7), blocks.Num(3)))))
	if err != nil {
		t.Fatal(err)
	}
	if out := compileAndRun(t, src); out != "-2\n2\n" {
		t.Errorf("7 mod -3, -7 mod 3 printed %q, want -2 and 2", out)
	}
}

// TestListing4Compiles compiles the paper's hello-world OpenMP program
// (with stdio added, as the paper's fragment omits the include).
func TestListing4Compiles(t *testing.T) {
	// gcc tolerates the paper's `void main`; only stdio needs adding.
	src := "#include <stdio.h>\n" + Listing4
	out := compileAndRun(t, src, "-fopenmp")
	if !strings.Contains(out, "hello(") {
		t.Errorf("Listing 4 printed %q", out)
	}
}
