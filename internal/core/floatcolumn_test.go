package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/blocks"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/mapreduce"
	"repro/internal/parse"
	"repro/internal/progcache"
	"repro/internal/value"
	"repro/internal/vm"
)

// floatRingPairs are numeric (map, reduce) ring pairs that run on the
// float column. Inputs are 1..n ("ints") or a mixed column of negatives,
// fractions and signed zeros, so each error case below fails at a fixed
// element once the column is long enough to reach it.
var floatRingPairs = []struct{ name, mapSrc, reduceSrc string }{
	{"climate", `(ring (/ (* 5 (- _ 32)) 9))`, `(ring (/ (combine _ (ring (+ _ _))) (length _)))`},
	{"named", `(lambda (c) (+ (* $c $c) 1))`, `(lambda (g) (combine $g (lambda (a b) (- $a $b))))`},
	// A duplicated name binds to its last position: the mapper's x has
	// no argument (0), the fold's a is the item.
	{"duplicated", `(lambda (x x) (+ $x 1))`, `(ring (combine _ (lambda (a a) (+ $a 1))))`},
	{"missing-param", `(lambda (x y) (- $x $y))`, `(ring (combine _ (ring (+ _ _))))`},
	// One slot called with (acc, item) reads acc: doubling overflows.
	{"single-slot-combine", `(ring (+ _ 1))`, `(ring (combine _ (ring (* _ 2))))`},
	{"div-zero-at-40", `(ring (/ 100 (- _ 40)))`, `(ring (/ (combine _ (ring (+ _ _))) (length _)))`},
	{"mod-zero-at-17", `(ring (mod _ (- _ 17)))`, `(ring (combine _ (ring (+ _ _))))`},
	{"fold-div-zero-at-3", `(ring _)`, `(ring (combine _ (ring (/ _ (- _ 3)))))`},
	{"negative-mod", `(ring (mod (- _ 50) -7))`, `(ring (combine _ (lambda (a b) (mod (+ $a $b) (- 0 (+ 1 (mod $b 5)))))))`},
	{"overflow", `(ring (* (* _ 1e308) 10))`, `(ring (combine _ (ring (+ _ _))))`},
	{"inf-minus-inf", `(ring (- (* _ 1e308) (* _ 1e308)))`, `(ring (combine _ (ring (- _ _))))`},
	{"list-reducer", `(ring (* _ -1))`, `(ring _)`},
	{"item-reducer", `(ring (- 0 _))`, `(ring (list (item 1 _) (length _) (combine _ (ring (* _ _)))))`},
}

// shippedRing parses a ring or lambda expression into a shipped ring.
func shippedRing(t *testing.T, src string) *blocks.Ring {
	t.Helper()
	n, err := parse.Expr(src)
	if err != nil {
		t.Fatal(err)
	}
	rn, ok := n.(blocks.RingNode)
	if !ok {
		t.Fatalf("%s parsed to %T, not a ring", src, n)
	}
	return &blocks.Ring{Body: rn.Body, Params: rn.Params}
}

// floatColumns builds the two input families at length n.
func floatColumns(n int) map[string]*value.List {
	ints := make([]float64, n)
	mixed := make([]float64, n)
	for i := range n {
		ints[i] = float64(i + 1)
		mixed[i] = float64(i%11-5) * 0.75
		if mixed[i] == 0 && i%2 == 1 {
			mixed[i] = math.Copysign(0, -1)
		}
	}
	return map[string]*value.List{"ints": value.FromFloats(ints), "mixed": value.FromFloats(mixed)}
}

// sameValue is exact agreement: numbers bit for bit, lists item by item
// (two float columns bit for bit, where reading an item would box a -0
// away), anything else by kind and rendering.
func sameValue(a, b value.Value) bool {
	switch x := a.(type) {
	case value.Number:
		y, ok := b.(value.Number)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case *value.List:
		y, ok := b.(*value.List)
		if !ok || x.Len() != y.Len() {
			return false
		}
		xs, xcol := x.FloatsView()
		ys, ycol := y.FloatsView()
		if xcol && ycol {
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(ys[i]) {
					return false
				}
			}
			return true
		}
		for i := 1; i <= x.Len(); i++ {
			if !sameValue(x.MustItem(i), y.MustItem(i)) {
				return false
			}
		}
		return true
	}
	return a.Kind() == b.Kind() && a.String() == b.String()
}

// TestFloatColumnMatchesTreeWalker holds the float column tier of the
// mapReduce block to the tree walker: every pair above must get float
// forms, and on every column length and worker count its run must report
// the tree-walked rings' pairs exactly, or their error word for word.
func TestFloatColumnMatchesTreeWalker(t *testing.T) {
	prev := vm.Enabled()
	vm.SetEnabled(false) // the reference rings tree-walk
	defer vm.SetEnabled(prev)
	for _, c := range floatRingPairs {
		ms, rs := shippedRing(t, c.mapSrc), shippedRing(t, c.reduceSrc)
		k := newMRKernels(ms, rs)
		if k.cols.FloatMap == nil || k.cols.FloatReduce == nil {
			t.Fatalf("%s: no float forms", c.name)
		}
		treeMap := func(item value.Value) (string, value.Value, error) {
			v, err := interp.CallFunction(ms, []value.Value{item}, WorkerBudget)
			if err != nil {
				return "", nil, err
			}
			key, v := compile.Keyed(v)
			return key, v, nil
		}
		treeReduce := func(key string, vals *value.List) (value.Value, error) {
			return interp.CallFunction(rs, []value.Value{vals}, WorkerBudget)
		}
		for _, n := range []int{0, 1, 2, 64, 65, 5000} {
			for family, input := range floatColumns(n) {
				for _, w := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/n=%d/workers=%d", c.name, family, n, w), func(t *testing.T) {
						got, gerr := mapreduce.Run(input, k.m, k.r, mapreduce.Config{Workers: w, Columns: k.cols})
						want, werr := mapreduce.Run(input, treeMap, treeReduce, mapreduce.Config{Workers: w})
						if fmt.Sprint(gerr) != fmt.Sprint(werr) {
							t.Fatalf("error %v, tree walker %v", gerr, werr)
						}
						if len(got) != len(want) {
							t.Fatalf("%d pairs, tree walker %d", len(got), len(want))
						}
						for i := range got {
							if got[i].Key != want[i].Key || !sameValue(got[i].Val, want[i].Val) {
								t.Fatalf("pair %d: %s, tree walker %s", i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestFloatFormsNeedBothRings pins when the column pair is withheld: a map
// ring without a float form, or a reduce ring the compile tier refuses,
// leaves the pair on the boxed column.
func TestFloatFormsNeedBothRings(t *testing.T) {
	for _, c := range []struct{ mapSrc, reduceSrc string }{
		{`(ring (round _))`, `(ring (length _))`},
		{`(ring (list _ 1))`, `(ring (length _))`},
		{`(ring (+ _ 1))`, `(ring (random 1 10))`},
	} {
		k := newMRKernels(shippedRing(t, c.mapSrc), shippedRing(t, c.reduceSrc))
		if k.cols.FloatMap != nil || k.cols.FloatReduce != nil {
			t.Errorf("%s / %s: float forms built", c.mapSrc, c.reduceSrc)
		}
	}
}

// TestTreeMapReduceBuildsKernelsOnce pins that the tree-walker primitive,
// which meets fresh ring values on every evaluation, looks its kernel set
// up in the ring tier instead of recompiling it: repeated evaluations of
// one mapReduce load nothing into the cache and stay within a fixed
// allocation budget. Recompiling the set costs every evaluation more
// than a dozen further allocations.
func TestTreeMapReduceBuildsKernelsOnce(t *testing.T) {
	prev := vm.Enabled()
	vm.SetEnabled(false)
	defer vm.SetEnabled(prev)
	n, err := parse.Expr(`(mapreduce (ring (/ (* 5 (- _ 32)) 9))
		(ring (/ (combine _ (ring (+ _ _))) (length _))) (numbers 1 40))`)
	if err != nil {
		t.Fatal(err)
	}
	blk := n.(*blocks.Block)
	m := newMachine()
	eval := func() {
		v, err := m.EvalReporter(blk)
		if err != nil || v.String() != "-6.388888888888888" {
			t.Fatalf("mapReduce = %v, %v", v, err)
		}
	}
	eval()
	before := progcache.DefaultRings.Stats()
	allocs := testing.AllocsPerRun(50, eval)
	if after := progcache.DefaultRings.Stats(); after.Misses != before.Misses {
		t.Errorf("ring tier misses %d -> %d: the kernel set was rebuilt", before.Misses, after.Misses)
	}
	t.Logf("%.0f allocs per evaluation", allocs)
	if allocs > treeMapReduceAllocs {
		t.Errorf("%.0f allocs per evaluation, want at most %d", allocs, treeMapReduceAllocs)
	}
}

// treeMapReduceAllocs bounds one tree-walked evaluation of the 40-item
// climate mapReduce, end to end: the process and its contexts, the
// numbers list, the two shipped rings and the pair's content address, the
// engine run and its result.
const treeMapReduceAllocs = 40
