package compile

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blocks"
	"repro/internal/evo/oracle"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/value"
)

// The differential harness is the compiler's correctness contract: random
// ring bodies are run through BOTH tiers — the compiled closure and the
// interpreter (interp.CallFunction, the tier every uncompilable ring falls
// back to) — and must report identical values and identical error strings.
// A ring the compiler refuses simply doesn't participate (that IS the
// fallback behavior); the test asserts the generator still yields a healthy
// compiled fraction so the comparison has teeth.

type gen struct {
	rnd    *rand.Rand
	params []string
}

var genTexts = []string{"", "hi", "hello world", "3", "-2.5", "true", "false", "a,b,c", "Straße"}

var genMonadic = []string{"sqrt", "abs", "floor", "ceiling", "sin", "cos", "tan", "ln", "log", "e^", "nope"}

var genDelims = []string{"", " ", ",", "line", "whitespace", "l"}

// val builds a random argument value: scalars, nothing, and small lists.
func (g *gen) val(depth int) value.Value {
	switch g.rnd.Intn(6) {
	case 0:
		return value.NumInt(g.rnd.Intn(41) - 20)
	case 1:
		return value.Num(float64(g.rnd.Intn(400)-200) / 10)
	case 2:
		return value.Text(genTexts[g.rnd.Intn(len(genTexts))])
	case 3:
		return value.Bool(g.rnd.Intn(2) == 0)
	case 4:
		return value.TheNothing
	default:
		n := g.rnd.Intn(5)
		items := make([]value.Value, n)
		for i := range items {
			items[i] = value.NumInt(g.rnd.Intn(21) - 10)
		}
		return value.NewList(items...)
	}
}

// leaf builds a terminal node: a literal, a parameter reference, an empty
// slot (parameterless rings only), or — rarely — a free variable, whose
// lookup error both tiers must word identically.
func (g *gen) leaf() blocks.Node {
	switch g.rnd.Intn(8) {
	case 0:
		return blocks.Num(float64(g.rnd.Intn(41) - 20))
	case 1:
		return blocks.Num(float64(g.rnd.Intn(400)-200) / 10)
	case 2:
		return blocks.Txt(genTexts[g.rnd.Intn(len(genTexts))])
	case 3:
		return blocks.BoolLit(g.rnd.Intn(2) == 0)
	case 4:
		if g.rnd.Intn(10) == 0 {
			return blocks.Var("ghost")
		}
		fallthrough
	default:
		if len(g.params) > 0 {
			return blocks.Var(g.params[g.rnd.Intn(len(g.params))])
		}
		return blocks.Empty()
	}
}

// listSrc builds a node likely (not certainly) to evaluate to a list — a
// certain miss exercises the "expecting a list" error path in both tiers.
// reportNumbers operands stay literal and small so list sizes are bounded.
func (g *gen) listSrc(depth int) blocks.Node {
	switch g.rnd.Intn(4) {
	case 0:
		return blocks.Reporter(blocks.Numbers(
			blocks.Num(float64(g.rnd.Intn(21)-10)),
			blocks.Num(float64(g.rnd.Intn(21)-10))))
	case 1:
		n := g.rnd.Intn(4)
		items := make([]blocks.Node, n)
		for i := range items {
			items[i] = g.node(depth - 1)
		}
		return blocks.Reporter(blocks.ListOf(items...))
	case 2:
		return g.leaf()
	default:
		return blocks.Reporter(blocks.Map(g.innerRing(depth-1, 1), g.listSrc(depth-1)))
	}
}

// innerRing builds the literal ring slot of a higher-order block with
// `arity` formals: named parameters or (only compilable when the outer ring
// is parameterized-free of implicits) positional empty slots.
func (g *gen) innerRing(depth, arity int) blocks.Node {
	if g.rnd.Intn(2) == 0 {
		params := []string{"u", "v", "w"}[:arity]
		inner := &gen{rnd: g.rnd, params: append(params, g.params...)}
		return blocks.RingOf(inner.node(depth), params...)
	}
	inner := &gen{rnd: g.rnd}
	return blocks.RingOf(inner.node(depth))
}

func (g *gen) node(depth int) blocks.Node {
	if depth <= 0 {
		return g.leaf()
	}
	switch g.rnd.Intn(24) {
	case 0:
		return blocks.Reporter(blocks.Sum(g.node(depth-1), g.node(depth-1)))
	case 1:
		return blocks.Reporter(blocks.Difference(g.node(depth-1), g.node(depth-1)))
	case 2:
		return blocks.Reporter(blocks.Product(g.node(depth-1), g.node(depth-1)))
	case 3:
		return blocks.Reporter(blocks.Quotient(g.node(depth-1), g.node(depth-1)))
	case 4:
		return blocks.Reporter(blocks.Modulus(g.node(depth-1), g.node(depth-1)))
	case 5:
		return blocks.Reporter(blocks.Round(g.node(depth - 1)))
	case 6:
		return blocks.Reporter(blocks.Monadic(genMonadic[g.rnd.Intn(len(genMonadic))], g.node(depth-1)))
	case 7:
		return blocks.Reporter(blocks.LessThan(g.node(depth-1), g.node(depth-1)))
	case 8:
		return blocks.Reporter(blocks.Equals(g.node(depth-1), g.node(depth-1)))
	case 9:
		return blocks.Reporter(blocks.GreaterThan(g.node(depth-1), g.node(depth-1)))
	case 10:
		return blocks.Reporter(blocks.And(g.node(depth-1), g.node(depth-1)))
	case 11:
		return blocks.Reporter(blocks.Or(g.node(depth-1), g.node(depth-1)))
	case 12:
		return blocks.Reporter(blocks.Not(g.node(depth - 1)))
	case 13:
		return blocks.Reporter(blocks.Ternary(g.node(depth-1), g.node(depth-1), g.node(depth-1)))
	case 14:
		return blocks.Reporter(blocks.Join(g.node(depth-1), g.node(depth-1)))
	case 15:
		return blocks.Reporter(blocks.Letter(g.node(depth-1), g.node(depth-1)))
	case 16:
		return blocks.Reporter(blocks.StringSize(g.node(depth - 1)))
	case 17:
		return blocks.Reporter(blocks.Split(g.node(depth-1), blocks.Txt(genDelims[g.rnd.Intn(len(genDelims))])))
	case 18:
		return blocks.Reporter(blocks.ItemOf(g.node(depth-1), g.listSrc(depth-1)))
	case 19:
		return blocks.Reporter(blocks.LengthOf(g.listSrc(depth - 1)))
	case 20:
		return blocks.Reporter(blocks.ListContains(g.listSrc(depth-1), g.node(depth-1)))
	case 21:
		return blocks.Reporter(blocks.Map(g.innerRing(depth-1, 1), g.listSrc(depth-1)))
	case 22:
		return blocks.Reporter(blocks.Keep(g.innerRing(depth-1, 1), g.listSrc(depth-1)))
	default:
		return blocks.Reporter(blocks.Combine(g.listSrc(depth-1), g.innerRing(depth-1, 2)))
	}
}

// runDifferential generates iters random rings; for each one the compiler
// accepts, both tiers run on identical (cloned) arguments and the results
// are compared. Returns how many rings compiled.
func runDifferential(t *testing.T, rnd *rand.Rand, iters int) int {
	t.Helper()
	compiled := 0
	for i := 0; i < iters; i++ {
		g := &gen{rnd: rnd}
		switch rnd.Intn(3) {
		case 1:
			g.params = []string{"x"}
		case 2:
			g.params = []string{"x", "y"}
		}
		body := g.node(3)
		ring := &blocks.Ring{Body: body, Params: g.params}
		fn, ok := Ring(ring)
		if !ok {
			continue
		}
		compiled++
		nargs := rnd.Intn(4) // 0..3: missing params, extra implicits, all covered
		args := make([]value.Value, nargs)
		cargs := make([]value.Value, nargs)
		for j := range args {
			args[j] = g.val(2)
			cargs[j] = value.CloneValue(args[j])
		}
		iv, ierr := interp.CallFunction(ring, args, 1<<20)
		cv, cerr := fn(cargs)
		desc := body.Describe()
		// The comparison contract is the shared oracle's: identical
		// error wording (not merely both-failed), and value agreement up
		// to rendering.
		if is, cs := oracle.ErrString(ierr), oracle.ErrString(cerr); is != cs {
			t.Fatalf("error divergence on %s (args %v):\n  interp:   %s\n  compiled: %s",
				desc, args, is, cs)
		}
		if ierr != nil {
			continue
		}
		if !oracle.ValuesAgree(iv, cv) {
			t.Fatalf("value divergence on %s (args %v):\n  interp:   %s\n  compiled: %s",
				desc, args, iv, cv)
		}
	}
	return compiled
}

func TestDifferentialCompiledVsInterpreted(t *testing.T) {
	// Run with observability on and hold the tier counters to the
	// harness's own tally: every Ring call must register as exactly one
	// hit or one fallback — a double-count (or a refusal that forgot to
	// report) breaks the agreement immediately, across 3000 random rings.
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prevObs) })
	hitsBefore := obs.CompileHits.Value()
	fallbacksBefore := obs.CompileFallbacks.Total()

	rnd := rand.New(rand.NewSource(0xC0FFEE))
	const iters = 3000
	compiled := runDifferential(t, rnd, iters)
	t.Logf("compiled %d/%d generated rings", compiled, iters)
	if compiled < iters/4 {
		t.Fatalf("generator too refusal-heavy: only %d/%d rings compiled — the differential comparison lost its teeth", compiled, iters)
	}

	if got := obs.CompileHits.Value() - hitsBefore; got != int64(compiled) {
		t.Errorf("engine_compile_hits_total moved by %d, harness compiled %d rings", got, compiled)
	}
	if got := obs.CompileFallbacks.Total() - fallbacksBefore; got != int64(iters-compiled) {
		t.Errorf("engine_compile_fallbacks_total moved by %d, harness refused %d rings", got, iters-compiled)
	}
}

// FuzzCompileRing lets the fuzzer steer the generator seed, hunting for a
// ring whose compiled and interpreted behavior disagree. `make check` runs
// a short -fuzztime burst; `go test -fuzz FuzzCompileRing ./internal/compile`
// runs it open-ended. Beyond the fixed seeds, every reproducer the evo
// stress engine has persisted contributes a derived seed, so the ring
// generator re-explores the neighborhoods where cross-tier divergences
// were actually found.
func FuzzCompileRing(f *testing.F) {
	for i, seed := range []int64{0, 1, 2, 42, 0xBEEF, -7} {
		f.Add(seed, floatGrid[i], floatGrid[len(floatGrid)-1-i])
	}
	if entries, err := os.ReadDir("../evo/corpus"); err == nil {
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".bytes" {
				continue
			}
			b, err := os.ReadFile(filepath.Join("../evo/corpus", e.Name()))
			if err != nil {
				continue
			}
			sum := sha256.Sum256(b)
			f.Add(int64(binary.LittleEndian.Uint64(sum[:8])), 2.5, -1.0)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, x, y float64) {
		runDifferential(t, rand.New(rand.NewSource(seed)), 25)
		runFloatLeg(t, rand.New(rand.NewSource(seed)), 25, x, y)
	})
}

// floatGrid is the float leg's fixed operand grid: signed zeros and
// units, the infinities, NaN, a value one product away from overflow,
// and a fraction.
var floatGrid = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, 2.5, -7}

// numNode builds a numeric ring body: the arithmetic entries over number
// literals and the ring's own arguments, which is the float compiler's
// whole language, with an occasional text literal, unary op or free
// variable it must refuse.
func (g *gen) numNode(depth int) blocks.Node {
	if depth <= 0 || g.rnd.Intn(5) == 0 {
		switch g.rnd.Intn(12) {
		case 0:
			return blocks.Txt("3")
		case 1:
			return blocks.Var("ghost")
		case 2, 3, 4:
			return blocks.Num(floatGrid[g.rnd.Intn(len(floatGrid))])
		}
		if len(g.params) > 0 {
			return blocks.Var(g.params[g.rnd.Intn(len(g.params))])
		}
		return blocks.Empty()
	}
	a, b := g.numNode(depth-1), g.numNode(depth-1)
	switch g.rnd.Intn(11) {
	case 0, 1:
		return blocks.Reporter(blocks.Sum(a, b))
	case 2, 3:
		return blocks.Reporter(blocks.Difference(a, b))
	case 4, 5:
		return blocks.Reporter(blocks.Product(a, b))
	case 6, 7:
		return blocks.Reporter(blocks.Quotient(a, b))
	case 8, 9:
		return blocks.Reporter(blocks.Modulus(a, b))
	}
	return blocks.Reporter(blocks.Round(a))
}

// runFloatLeg generates iters numeric rings. For each one the float
// compiler accepts, the float form called on x (one argument) or on
// (x, y) (two) must report what the boxed compiled ring reports on
// value.Num(x) and value.Num(y): the same error wording, and the same
// value up to the sign of a zero, which boxing drops. The keyed map
// kernels must agree exactly, bit for bit. Returns how many float forms
// were compared.
func runFloatLeg(t *testing.T, rnd *rand.Rand, iters int, x, y float64) int {
	t.Helper()
	compared := 0
	for i := 0; i < iters; i++ {
		g := &gen{rnd: rnd}
		switch rnd.Intn(4) {
		case 1:
			g.params = []string{"x"}
		case 2:
			g.params = []string{"x", "y"}
		case 3:
			g.params = []string{"x", "x"}
		}
		r := &blocks.Ring{Body: g.numNode(3), Params: g.params}
		fn, _, boxedOK := ring(r)
		desc := r.Body.Describe()
		for nargs := 1; nargs <= 2; nargs++ {
			f, ok := floatBody(r.Params, r.Body, nargs)
			if !ok {
				continue
			}
			if !boxedOK {
				t.Fatalf("float form for %s, which the boxed compiler refuses", desc)
			}
			compared++
			args := []value.Value{value.Num(x), value.Num(y)}[:nargs]
			bv, berr := fn(args)
			fv, ferr := f(x, y)
			if bs, fs := oracle.ErrString(berr), oracle.ErrString(ferr); bs != fs {
				t.Fatalf("error divergence on %s (args %v):\n  boxed: %s\n  float: %s", desc, args, bs, fs)
			}
			if berr == nil && !sameFloat(bv, fv) {
				t.Fatalf("value divergence on %s (args %v):\n  boxed: %v\n  float: %v", desc, args, bv, fv)
			}
		}
		fm, ok := FloatMapperRing(r)
		if !ok {
			continue
		}
		mf, _ := MapperRing(r)
		bk, bv, berr := mf(value.Num(x))
		fk, fv, ferr := fm(x)
		if bs, fs := oracle.ErrString(berr), oracle.ErrString(ferr); bs != fs || bk != fk {
			t.Fatalf("map kernel divergence on %s (x %v): boxed (%q, %s), float (%q, %s)", desc, x, bk, bs, fk, fs)
		}
		if n, ok := bv.(value.Number); berr == nil && (!ok || math.Float64bits(float64(n)) != math.Float64bits(fv)) {
			t.Fatalf("map kernel value divergence on %s (x %v): boxed %v, float %v", desc, x, bv, fv)
		}
	}
	return compared
}

// sameFloat reports whether a boxed result is the number f, bit for bit
// (NaN payloads included) except for the sign of a zero.
func sameFloat(boxed value.Value, f float64) bool {
	n, ok := boxed.(value.Number)
	if !ok {
		return false
	}
	b := float64(n)
	return math.Float64bits(b) == math.Float64bits(f) || b == 0 && f == 0
}

// TestFloatFormMatchesBoxed runs the float leg over every pair of grid
// operands.
func TestFloatFormMatchesBoxed(t *testing.T) {
	rnd := rand.New(rand.NewSource(0xF10A7))
	compared := 0
	for _, x := range floatGrid {
		for _, y := range floatGrid {
			compared += runFloatLeg(t, rnd, 20, x, y)
		}
	}
	t.Logf("compared %d float forms", compared)
	if compared < 500 {
		t.Fatalf("only %d float forms compared: the generator lost its numeric rings", compared)
	}
}

// TestDifferentialSlotConsumption pins the subtlest equivalence: static
// slot indices versus the interpreter's dynamic implicit cursor, across
// every argument count.
func TestDifferentialSlotConsumption(t *testing.T) {
	// join(_, "|", _, "|", _): three slots, fed 0..4 args.
	body := blocks.Reporter(blocks.Join(
		blocks.Empty(), blocks.Txt("|"), blocks.Empty(), blocks.Txt("|"), blocks.Empty()))
	ring := &blocks.Ring{Body: body}
	fn, ok := Ring(ring)
	if !ok {
		t.Fatal("slot ring should compile")
	}
	pool := []value.Value{value.Text("a"), value.Text("b"), value.Text("c"), value.Text("d")}
	for n := 0; n <= 4; n++ {
		args := pool[:n]
		iv, ierr := interp.CallFunction(ring, args, 1<<20)
		cv, cerr := fn(args)
		if ierr != nil || cerr != nil {
			t.Fatalf("n=%d: unexpected errors %v / %v", n, ierr, cerr)
		}
		if iv.String() != cv.String() {
			t.Fatalf("n=%d: interp %q vs compiled %q", n, iv, cv)
		}
	}
}
