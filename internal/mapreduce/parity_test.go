package mapreduce

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/value"
)

// parityCycle is the value pattern of the parity inputs; item 3 of every
// input with three or more items is the unique sentinel 451, which the
// fault kernels below trip on.
var parityCycle = []float64{32, 212, 122, -40, 98.6, 50, 32}

func parityFloats(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = parityCycle[i%len(parityCycle)]
		if i == 2 {
			xs[i] = 451
		}
	}
	return xs
}

// parityBoxed is a boxed list mixing Numbers and numeric Text.
func parityBoxed(n int) *value.List {
	l := value.NewListCap(n)
	for i, x := range parityFloats(n) {
		if i%3 == 1 {
			l.Add(value.Text(value.Number(x).String()))
		} else {
			l.Add(value.Number(x))
		}
	}
	return l
}

func parityInputs() []struct {
	name string
	in   *value.List
} {
	strs := func(n int) []string {
		out := make([]string, n)
		for i, x := range parityFloats(n) {
			out[i] = value.Number(x).String()
		}
		return out
	}
	return []struct {
		name string
		in   *value.List
	}{
		{"boxed", parityBoxed(12)},
		{"float column", value.FromFloats(parityFloats(70))},
		{"string column", value.FromStrings(strs(12))},
		// A non-numeric cell fails the stock numeric kernels at exactly
		// one item (FahrenheitToCelsius) or one key (Identity+AvgReduce).
		{"string column, bad cell", value.FromStrings([]string{"32", "212", "hot", "122", "32"})},
		{"empty", value.NewList()},
		{"one item", value.FromFloats([]float64{98.6})},
		// 64 and 65 pairs straddle the old small-shuffle cutoff.
		{"64 items", parityBoxed(64)},
		{"65 items", parityBoxed(65)},
	}
}

// byString is an unregistered closure mapper: Identity's keys, so it runs
// the boxed pipeline even over a column.
func byString(item value.Value) (string, value.Value, error) { return item.String(), item, nil }

// render is a closure reducer whose result pins the group's values and
// their emission order.
func render(key string, vals *value.List) (value.Value, error) {
	return value.Text(key + "=" + vals.String()), nil
}

func parityKernels() []struct {
	name string
	m    Mapper
	r    Reducer
} {
	sentinel := value.Number(451).String()
	return []struct {
		name string
		m    Mapper
		r    Reducer
	}{
		{"stock wordcount", WordCount, SumReduce},
		{"stock climate", FahrenheitToCelsius, AvgReduce},
		{"stock identity", Identity, IdentityReduce},
		{"stock singlekey count", SingleKey, CountReduce},
		{"stock identity avg", Identity, AvgReduce},
		{"closure", byString, render},
		{"closure mapper stock reducer", byString, CountReduce},
		{"stock mapper closure reducer", WordCount, render},
		{"mapper error", func(item value.Value) (string, value.Value, error) {
			if item.String() == sentinel {
				return "", nil, fmt.Errorf("no mapping for %s", item)
			}
			return byString(item)
		}, render},
		{"mapper panic", func(item value.Value) (string, value.Value, error) {
			if item.String() == sentinel {
				panic("mapper exploded")
			}
			return byString(item)
		}, render},
		{"reducer error", byString, func(key string, vals *value.List) (value.Value, error) {
			if key == sentinel {
				return nil, errors.New("no reduction")
			}
			return render(key, vals)
		}},
		{"reducer panic", byString, func(key string, vals *value.List) (value.Value, error) {
			if key == sentinel {
				panic("reducer exploded")
			}
			return render(key, vals)
		}},
	}
}

// TestEngineParity is the engine's contract table: every input crossed
// with every kernel pair, worker count and observability setting must
// match referenceRun pair for pair and error for error. Column inputs with
// registered stock pairs take the float64 value column; everything else
// takes the boxed one.
func TestEngineParity(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	faults := 0
	for _, in := range parityInputs() {
		for _, k := range parityKernels() {
			want, wantErr := referenceRun(in.in, k.m, k.r)
			if wantErr != nil {
				faults++
			}
			for _, w := range []int{1, 4} {
				for _, on := range []bool{false, true} {
					obs.SetEnabled(on)
					got, err := Run(in.in, k.m, k.r, Config{Workers: w})
					where := fmt.Sprintf("%s / %s / workers=%d / obs=%v", in.name, k.name, w, on)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Errorf("%s: err = %v, want %v", where, err, wantErr)
						continue
					}
					if g, r := strings.Join(got.Strings(), ", "), strings.Join(want.Strings(), ", "); g != r {
						t.Errorf("%s:\n got  %s\n want %s", where, g, r)
					}
				}
			}
		}
	}
	// Four fault kernels on each of five inputs that hold the sentinel,
	// plus the two stock failures on the bad cell.
	if faults != 22 {
		t.Errorf("%d reference runs failed, want 22: the fault cases no longer fault", faults)
	}
}

// The sequential engine (formerly RunSeq) is now Run with Config{Workers:
// 1}. These tests hold it to referenceRun's observable behavior — pair for
// pair, error wording included — on every edge the evolutionary generator
// seeds (empty input, single item, single key, multi-key, the old 64-pair
// small-shuffle boundary) and on the failure modes (mapper/reducer errors
// and panics).

// seqBoundary is the pair count at which the shuffle once switched
// strategies; inputs at and just past it stay in the parity table.
const seqBoundary = 64

// assertParity runs the sequential configuration and the reference over
// the same input and fails on any observable difference.
func assertParity(t *testing.T, input *value.List, m Mapper, r Reducer) {
	t.Helper()
	seqRes, seqErr := Run(input, m, r, Config{Workers: 1})
	refRes, refErr := referenceRun(input, m, r)
	if (seqErr == nil) != (refErr == nil) {
		t.Fatalf("error parity: Run err = %v, referenceRun err = %v", seqErr, refErr)
	}
	if seqErr != nil {
		if seqErr.Error() != refErr.Error() {
			t.Fatalf("error wording: Run %q, referenceRun %q", seqErr, refErr)
		}
		return
	}
	if len(seqRes) != len(refRes) {
		t.Fatalf("result length: Run %d pairs, referenceRun %d pairs\nrun: %v\nref: %v",
			len(seqRes), len(refRes), seqRes.Strings(), refRes.Strings())
	}
	for i := range seqRes {
		if got, want := seqRes[i].String(), refRes[i].String(); got != want {
			t.Errorf("pair %d: Run %q, referenceRun %q", i, got, want)
		}
	}
}

func TestRunSeqParityEdges(t *testing.T) {
	many := make([]string, 0, seqBoundary+8)
	for i := 0; i < seqBoundary+8; i++ {
		many = append(many, fmt.Sprintf("w%02d", i%7))
	}
	cases := []struct {
		name  string
		input *value.List
		m     Mapper
		r     Reducer
	}{
		// An empty input must produce an empty (not nil-error) result,
		// and a single-key workload must keep its values in emission
		// order.
		{"empty input", value.NewList(), WordCount, SumReduce},
		{"empty input identity", value.NewList(), Identity, IdentityReduce},
		{"single item", value.FromStrings([]string{"only"}), WordCount, SumReduce},
		{"single key", value.FromFloats([]float64{3, 1, 2}), SingleKey, IdentityReduce},
		{"single key avg", value.FromFloats([]float64{32, 212, 122}), FahrenheitToCelsius, AvgReduce},
		{"multi key", fig11Input("the quick brown fox jumps over the lazy dog the end"), WordCount, SumReduce},
		{"at smallShuffle boundary", value.FromStrings(many[:seqBoundary]), WordCount, SumReduce},
		{"past smallShuffle boundary", value.FromStrings(many), WordCount, SumReduce},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertParity(t, tc.input, tc.m, tc.r)
		})
	}
}

func TestRunSeqParityEmptyShape(t *testing.T) {
	// Beyond agreeing with the reference, the sequential empty-input
	// result must be a usable empty Result: zero pairs, a zero-length
	// Snap! list, no error.
	res, err := Run(value.NewList(), WordCount, SumReduce, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("res = %v, want empty", res.Strings())
	}
	if l := res.List(); l.Len() != 0 {
		t.Fatalf("List() = %s, want empty list", l)
	}
}

func TestRunSeqParityErrors(t *testing.T) {
	failMap := func(item value.Value) (string, value.Value, error) {
		if item.String() == "boom" {
			return "", nil, fmt.Errorf("no mapping for %s", item)
		}
		return WordCount(item)
	}
	panicMap := func(item value.Value) (string, value.Value, error) {
		if item.String() == "boom" {
			panic("mapper exploded")
		}
		return WordCount(item)
	}
	failReduce := func(key string, vals *value.List) (value.Value, error) {
		return nil, fmt.Errorf("no reduction")
	}
	panicReduce := func(key string, vals *value.List) (value.Value, error) {
		panic("reducer exploded")
	}
	in := value.FromStrings([]string{"ok", "ok", "boom", "ok"})
	cases := []struct {
		name string
		m    Mapper
		r    Reducer
		want string
	}{
		{"mapper error", failMap, SumReduce, `map item 3: no mapping for boom`},
		{"mapper panic", panicMap, SumReduce, `map item 3: mapper panic: mapper exploded`},
		{"reducer error", WordCount, failReduce, `reduce key "boom": no reduction`},
		{"reducer panic", WordCount, panicReduce, `reduce key "boom": reducer panic: reducer exploded`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertParity(t, in, tc.m, tc.r)
			_, err := Run(in, tc.m, tc.r, Config{Workers: 1})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("sequential err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// raceDetector is set when the tests run under the race detector, whose
// instrumentation moves allocation counts.
var raceDetector bool

// TestColumnAllocsIndependentOfN pins that a registered column pair runs
// on the float64 value column: the run's allocation count must not grow
// with the input, which any per-item boxing would break. A run's scratch
// comes from a sync.Pool, and a pool miss (a GC in between) adds
// allocations but never removes any, so each size takes the least of a
// few measurements.
func TestColumnAllocsIndependentOfN(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not stable under the race detector")
	}
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(false)
	allocs := func(n int) float64 {
		in := value.FromFloats(parityFloats(n))
		least := math.Inf(1)
		for trial := 0; trial < 5; trial++ {
			least = min(least, testing.AllocsPerRun(20, func() {
				if _, err := Run(in, FahrenheitToCelsius, AvgReduce, Config{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	if small, large := allocs(1000), allocs(10000); small != large {
		t.Fatalf("allocs/run: %v at n=1000, %v at n=10000; want equal", small, large)
	}
}

// boxedCopy rebuilds a columnar list as a plain boxed list with identical
// contents, so the same run can be driven down the boxed value column.
func boxedCopy(l *value.List) *value.List {
	return value.NewList(l.Items()...)
}

// TestColumnarFastPathParity runs every registered (mapper, reducer)
// kernel pair over a column-backed input and over a boxed copy of the same
// data; the column kernels engage only for the former, and the results
// must agree pair for pair.
func TestColumnarFastPathParity(t *testing.T) {
	nums := value.FromFloats([]float64{32, 212, 122, 32, -40, 98.6})
	words := value.FromStrings(strings.Fields("the quick fox the lazy dog the end"))
	cases := []struct {
		name  string
		input *value.List
		m     Mapper
		r     Reducer
	}{
		{"wordcount-strings", words, WordCount, SumReduce},
		{"wordcount-floats", nums, WordCount, SumReduce},
		{"climate", nums, FahrenheitToCelsius, AvgReduce},
		{"identity", nums, Identity, IdentityReduce},
		{"singlekey-count", nums, SingleKey, CountReduce},
		{"singlekey-sum", nums, SingleKey, SumReduce},
		{"identity-avg", nums, Identity, AvgReduce},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := planColumnRun(c.input, c.m, c.r); !ok {
				t.Fatal("column kernels did not engage for a registered kernel pair")
			}
			for _, w := range []int{1, 4} {
				fast, err := Run(c.input, c.m, c.r, Config{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				slow, err := Run(boxedCopy(c.input), c.m, c.r, Config{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				fs, ss := fast.Strings(), slow.Strings()
				if len(fs) != len(ss) {
					t.Fatalf("w=%d: columnar %v vs boxed %v", w, fs, ss)
				}
				for i := range fs {
					if fs[i] != ss[i] {
						t.Fatalf("w=%d row %d: columnar %q vs boxed %q", w, i, fs[i], ss[i])
					}
				}
			}
		})
	}
}

// TestColumnarPlanRefusals pins when the column kernels must NOT engage:
// boxed input, unregistered kernels, and a column kind the mapper has no
// kernel for all run on the boxed value column.
func TestColumnarPlanRefusals(t *testing.T) {
	nums := value.FromFloats([]float64{1, 2, 3})
	if _, ok := planColumnRun(value.NewList(value.Number(1)), WordCount, SumReduce); ok {
		t.Error("plan engaged for a boxed input")
	}
	if _, ok := planColumnRun(nums, byString, SumReduce); ok {
		t.Error("plan engaged for an unregistered mapper")
	}
	if _, ok := planColumnRun(nums, WordCount, func(k string, vs *value.List) (value.Value, error) {
		return SumReduce(k, vs)
	}); ok {
		t.Error("plan engaged for an unregistered reducer")
	}
	if _, ok := planColumnRun(value.FromStrings([]string{"a"}), SingleKey, SumReduce); ok {
		t.Error("plan engaged for a string column the mapper has no kernel for")
	}
}

// TestColumnarErrorParity pins failure wording across the two value
// columns: a text column with a non-numeric cell must fail
// FahrenheitToCelsius with the boxed path's exact error string.
func TestColumnarErrorParity(t *testing.T) {
	bad := value.FromStrings([]string{"32", "hot", "212"})
	_, fastErr := Run(bad, FahrenheitToCelsius, AvgReduce, Config{Workers: 2})
	_, slowErr := Run(boxedCopy(bad), FahrenheitToCelsius, AvgReduce, Config{Workers: 2})
	if fastErr == nil || slowErr == nil {
		t.Fatalf("expected errors, got %v / %v", fastErr, slowErr)
	}
	if fastErr.Error() != slowErr.Error() {
		t.Fatalf("error wording diverged:\n  columnar: %s\n  boxed:    %s", fastErr, slowErr)
	}
}

// TestErrorNamesLowestFailure pins worker-count invariance of the error
// wording: when every mapper call or every reducer fails, the run names
// the lowest failing item or key at 1 and at 4 workers alike, never
// whichever executor happened to fail first in time.
func TestErrorNamesLowestFailure(t *testing.T) {
	words := make([]string, 64)
	for i := range words {
		words[i] = fmt.Sprintf("w%02d", i)
	}
	in := value.FromStrings(words)
	failMap := func(item value.Value) (string, value.Value, error) {
		return "", nil, fmt.Errorf("no mapping for %s", item)
	}
	failReduce := func(key string, vals *value.List) (value.Value, error) {
		return nil, fmt.Errorf("no reduction for %s", key)
	}
	cases := []struct {
		name string
		m    Mapper
		r    Reducer
		want string
	}{
		{"every mapper fails", failMap, SumReduce, `map item 1: no mapping for w00`},
		{"every reducer fails", WordCount, failReduce, `reduce key "w00": no reduction for w00`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 4} {
				for rep := 0; rep < 20; rep++ {
					_, err := Run(in, tc.m, tc.r, Config{Workers: w})
					if err == nil || err.Error() != tc.want {
						t.Fatalf("%d workers, run %d: err = %v, want %q", w, rep, err, tc.want)
					}
				}
			}
		})
	}
}
