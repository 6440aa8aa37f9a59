// Package gen is the evolutionary stress engine's program synthesizer: a
// byte string (the genome) decodes deterministically into a valid,
// terminating, lint-clean block script biased toward the engine's hot
// machinery — inlined sequential hofs, mapReduce on both sides of the
// sync/async threshold, parallelMap, nested bounded loops, text and list
// ops, stage splices, and deterministic error-producing edges.
//
// Byte genomes make the genetic operators trivial (mutation is a byte
// edit, crossover a splice, shrinking a byte-range removal) and make every
// persisted divergence directly consumable by FuzzLowerProject, which
// feeds the same decoder. Out-of-data reads return zero, so every byte
// string decodes to something; the node budget bounds program size and
// every loop shape is finitely bounded, so every generated program
// terminates. Decoding is pure: the same genome always yields the same
// script.
//
// Two invariants keep all four execution tiers comparable:
//
//   - No wait blocks: the stage trace prefixes lines with the virtual
//     timestep, which only advances on doWait, so generated traces carry
//     identical timestamps on every tier.
//   - Worker-bound rings (parallelMap's ring, mapReduce's two rings) are
//     self-contained — empty slots and literals only. Anything else is a
//     lint error (worker-capture) that the serving tier rejects with 400
//     before execution. Error edges inside async-sized mapReduce rings
//     fire on at most one item, so the surfaced error text does not
//     depend on worker scheduling.
package gen

import (
	"encoding/hex"
	"math/rand"

	"repro/internal/blocks"
)

// Genome is a byte string that decodes to a block script.
type Genome []byte

// String renders the genome as hex — the form engine log lines, corpus
// file names, and test names all use.
func (g Genome) String() string { return hex.EncodeToString(g) }

// nodeBudget bounds decoded program size; past it every expression
// degenerates to a leaf and every statement to a trivial assignment.
const nodeBudget = 96

// scalarVars are the declared scalar variables every program may touch;
// listVar holds a list, outVar the reported result.
var scalarVars = []string{"a", "b", "c"}

const (
	listVar = "l"
	outVar  = "out"
)

var genTexts = []string{"", "x", "hello", "a b c", "the quick fox the lazy dog", "3", "-2.5", "x,y,x"}

// genMonadic stays within the printable selector set: the serving tier
// round-trips every program through parse.PrintProject, and unknown
// monadic selectors have no textual spelling.
var genMonadic = []string{"sqrt", "abs", "floor"}

type decoder struct {
	data  []byte
	pos   int
	nodes int
	loops int // live loop-nesting depth; deep nests get clamped trip counts
}

func (d *decoder) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) scalar() string { return scalarVars[int(d.next())%len(scalarVars)] }

func (d *decoder) num(n int) blocks.Node { return blocks.Num(float64(int(d.next()) % n)) }

func (d *decoder) text() blocks.Node { return blocks.Txt(genTexts[int(d.next())%len(genTexts)]) }

// leaf is a terminal expression: a small number, a text, a declared
// variable (including the list), or a boolean.
func (d *decoder) leaf() blocks.Node {
	switch d.next() % 6 {
	case 0:
		return blocks.Num(float64(int8(d.next())))
	case 1:
		return d.text()
	case 2:
		return blocks.Var(d.scalar())
	case 3:
		return blocks.Var(listVar)
	default:
		return blocks.BoolLit(d.next()%2 == 0)
	}
}

// expr decodes an expression tree. Leaf cases appear in the main switch
// too, so shallow programs are reachable — which is what lets the
// shrinker reduce a divergence to its minimal expression.
func (d *decoder) expr(depth int) blocks.Node {
	d.nodes++
	if depth <= 0 || d.nodes > nodeBudget {
		return d.leaf()
	}
	switch d.next() % 23 {
	case 0:
		// The zero byte — and therefore every out-of-data read — decodes
		// to a bare leaf, which is what makes the shrinker's byte-zeroing
		// and truncation genuine simplifications.
		return d.leaf()
	case 1:
		return blocks.Difference(d.expr(depth-1), d.expr(depth-1))
	case 2:
		return blocks.Product(d.expr(depth-1), d.expr(depth-1))
	case 3:
		// Division: zero denominators arise naturally from literals and
		// arithmetic, giving both tiers the divide-by-zero edge.
		return blocks.Quotient(d.expr(depth-1), d.expr(depth-1))
	case 4:
		return blocks.Modulus(d.expr(depth-1), d.expr(depth-1))
	case 5:
		return blocks.Round(d.expr(depth - 1))
	case 6:
		// Includes "nope": the unknown-function error both tiers must
		// word identically. sqrt of a negative is reachable through the
		// int8 literals.
		return blocks.Monadic(genMonadic[int(d.next())%len(genMonadic)], d.expr(depth-1))
	case 7:
		switch d.next() % 3 {
		case 0:
			return blocks.LessThan(d.expr(depth-1), d.expr(depth-1))
		case 1:
			return blocks.Equals(d.expr(depth-1), d.expr(depth-1))
		default:
			return blocks.GreaterThan(d.expr(depth-1), d.expr(depth-1))
		}
	case 8:
		if d.next()%2 == 0 {
			return blocks.And(d.expr(depth-1), d.expr(depth-1))
		}
		return blocks.Or(d.expr(depth-1), d.expr(depth-1))
	case 9:
		return blocks.Not(d.expr(depth - 1))
	case 10:
		// Ternary (reportIfElse) has no textual spelling, so branchy
		// values go through a letter-indexed pick instead.
		return blocks.ItemOf(d.expr(depth-1), blocks.Split(d.text(), blocks.Txt(" ")))
	case 11:
		return blocks.Join(d.expr(depth-1), d.expr(depth-1))
	case 12:
		return blocks.Letter(d.expr(depth-1), d.expr(depth-1))
	case 13:
		// String size via the per-letter split (reportStringSize has no
		// textual spelling either).
		return blocks.LengthOf(blocks.Split(d.expr(depth-1), blocks.Txt("")))
	case 14:
		return blocks.Split(d.expr(depth-1), blocks.Txt([]string{" ", ",", ""}[int(d.next())%3]))
	case 15:
		return blocks.Numbers(blocks.Num(1), d.num(8))
	case 16:
		n := int(d.next()) % 4
		items := make([]blocks.Node, n)
		for i := range items {
			items[i] = d.expr(depth - 1)
		}
		return blocks.ListOf(items...)
	case 17:
		// Out-of-range indices are part of the point.
		return blocks.ItemOf(d.expr(depth-1), d.listSrc(depth-1))
	case 18:
		if d.next()%2 == 0 {
			return blocks.LengthOf(d.listSrc(depth - 1))
		}
		return blocks.ListContains(d.listSrc(depth-1), d.expr(depth-1))
	case 19:
		return d.hof(depth)
	case 20:
		return blocks.Sum(d.expr(depth-1), d.expr(depth-1))
	default:
		return d.leaf()
	}
}

// listSrc is an expression likely — not certainly — to evaluate to a
// list; a certain miss exercises the "expecting a list" error path.
func (d *decoder) listSrc(depth int) blocks.Node {
	switch d.next() % 4 {
	case 0:
		return blocks.Numbers(blocks.Num(1), d.num(8))
	case 1:
		return blocks.Var(listVar)
	case 2:
		return blocks.Split(d.text(), blocks.Txt(" "))
	default:
		if depth <= 0 {
			return blocks.Var(listVar)
		}
		return d.expr(depth - 1)
	}
}

// innerRing is the literal ring slot of a sequential higher-order block.
// Sequential rings run inline in the calling process, so — unlike worker
// rings — they may capture outer variables and produce errors freely.
func (d *decoder) innerRing(depth, arity int) blocks.Node {
	if d.next()%2 == 0 {
		params := []string{"u", "v"}[:arity]
		return blocks.RingOf(d.expr(depth), params...)
	}
	return blocks.RingOf(blocks.Sum(blocks.Empty(), d.expr(depth)))
}

// hof decodes one higher-order call: the inlined sequential family, a
// direct ring call, or the parallel/mapReduce family.
func (d *decoder) hof(depth int) blocks.Node {
	switch d.next() % 6 {
	case 0:
		return blocks.Map(d.innerRing(depth-1, 1), d.listSrc(depth-1))
	case 1:
		return blocks.Keep(
			blocks.RingOf(blocks.GreaterThan(blocks.Empty(), d.expr(depth-1))),
			d.listSrc(depth-1))
	case 2:
		return blocks.Combine(d.listSrc(depth-1),
			blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty())))
	case 3:
		return blocks.Call(d.innerRing(depth-1, 2), d.expr(depth-1), d.expr(depth-1))
	case 4:
		return d.parallelMap()
	default:
		return d.mapReduce()
	}
}

// workerRing builds a self-contained mapper-shaped ring for the parallel
// tier: empty slots and literals only (anything else is the worker-capture
// lint error), errors impossible — divisors and moduli are nonzero
// literals — so results cannot depend on worker scheduling.
func (d *decoder) workerRing() blocks.Node {
	switch d.next() % 5 {
	case 0:
		return blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(float64(1+int(d.next())%9))))
	case 1:
		return blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Num(float64(int8(d.next())))))
	case 2:
		return blocks.RingOf(blocks.Modulus(blocks.Empty(), blocks.Num(float64(2+int(d.next())%5))))
	case 3:
		return blocks.RingOf(blocks.Join(blocks.Txt("v"), blocks.Empty()))
	default:
		return blocks.RingOf(blocks.ListOf(blocks.Empty(), blocks.Num(1)))
	}
}

// mrMapRing builds a mapReduce map ring. When errors are allowed (sync
// path, or a single-item edge) the division ring fails on exactly one
// item value, keeping the surfaced error deterministic even on workers.
func (d *decoder) mrMapRing(allowError bool) blocks.Node {
	k := float64(2 + int(d.next())%5)
	if allowError && d.next()%4 == 0 {
		at := float64(1 + int(d.next())%70)
		return blocks.RingOf(blocks.Quotient(blocks.Num(1),
			blocks.Difference(blocks.Empty(), blocks.Num(at))))
	}
	switch d.next() % 4 {
	case 0:
		// Keyed count: (item mod k, 1).
		return blocks.RingOf(blocks.ListOf(
			blocks.Modulus(blocks.Empty(), blocks.Num(k)), blocks.Num(1)))
	case 1:
		// String keys.
		return blocks.RingOf(blocks.ListOf(
			blocks.Join(blocks.Txt("k"), blocks.Modulus(blocks.Empty(), blocks.Num(k))),
			blocks.Empty()))
	case 2:
		// Identity-keyed pairs (one key per distinct item).
		return blocks.RingOf(blocks.ListOf(blocks.Empty(), blocks.Empty()))
	default:
		// Scalar result: every item maps to the single shared key.
		return blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(k)))
	}
}

func (d *decoder) mrReduceRing(allowError bool) blocks.Node {
	sum := func() blocks.Node {
		return blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))
	}
	if allowError && d.next()%5 == 0 {
		return blocks.RingOf(blocks.Quotient(blocks.Num(1), blocks.Num(0)))
	}
	switch d.next() % 3 {
	case 0:
		return blocks.RingOf(blocks.Combine(blocks.Empty(), sum()))
	case 1:
		return blocks.RingOf(blocks.LengthOf(blocks.Empty()))
	default:
		return blocks.RingOf(blocks.Quotient(
			blocks.Combine(blocks.Empty(), sum()),
			blocks.LengthOf(blocks.Empty())))
	}
}

// mrSizes spans the sync/async threshold (64): both engine paths, the
// empty and single-item edges, and inputs big enough to shard.
var mrSizes = []int{0, 1, 3, 8, 40, 63, 64, 65, 100, 200}

func (d *decoder) mapReduce() blocks.Node {
	size := mrSizes[int(d.next())%len(mrSizes)]
	var input blocks.Node
	if size == 0 {
		input = blocks.ListOf()
	} else if d.next()%5 == 0 {
		input = blocks.Split(blocks.Txt("the quick fox the lazy dog the end"), blocks.Txt(" "))
	} else {
		input = blocks.Numbers(blocks.Num(1), blocks.Num(float64(size)))
	}
	allowError := size <= 64
	return blocks.MapReduce(d.mrMapRing(allowError), d.mrReduceRing(allowError), input)
}

func (d *decoder) parallelMap() blocks.Node {
	return blocks.ParallelMap(d.workerRing(),
		blocks.Numbers(blocks.Num(1), blocks.Num(float64(1+int(d.next())%40))),
		blocks.Num(float64(1+int(d.next())%4)))
}

// body decodes n statement slots into a C-slot script.
func (d *decoder) body(n int) blocks.Node {
	var bs []*blocks.Block
	for i := 0; i < n; i++ {
		bs = append(bs, d.stmt()...)
	}
	return blocks.ScriptNode{Script: blocks.NewScript(bs...)}
}

// loopTrip bounds a decoded loop's trip count: nesting multiplies work,
// so deep nests get clamped hard.
func (d *decoder) loopTrip(max int) float64 {
	n := 1 + int(d.next())%max
	if d.loops >= 2 && n > 2 {
		n = 2
	}
	return float64(n)
}

// stmt decodes one statement slot — possibly a short macro of several
// blocks (the bounded-until shape needs its counter initialized).
func (d *decoder) stmt() []*blocks.Block {
	d.nodes++
	if d.nodes > nodeBudget {
		return []*blocks.Block{blocks.SetVar(d.scalar(), blocks.Num(0))}
	}
	one := func(b *blocks.Block) []*blocks.Block { return []*blocks.Block{b} }
	deepLoops := d.loops >= 3
	switch c := d.next() % 16; {
	case c == 0:
		return one(blocks.SetVar(d.scalar(), d.expr(2)))
	case c == 1:
		return one(blocks.ChangeVar(d.scalar(), d.expr(2)))
	case c == 2:
		return one(blocks.If(d.expr(2), d.body(1+int(d.next())%2)))
	case c == 3:
		return one(blocks.IfElse(d.expr(1), d.body(1), d.body(1)))
	case c == 4 && !deepLoops:
		d.loops++
		b := blocks.Repeat(blocks.Num(d.loopTrip(5)), d.body(1+int(d.next())%2))
		d.loops--
		return one(b)
	case c == 5 && !deepLoops:
		d.loops++
		b := blocks.For(d.scalar(), blocks.Num(1), blocks.Num(d.loopTrip(6)), d.body(1))
		d.loops--
		return one(b)
	case c == 6 && !deepLoops:
		d.loops++
		b := blocks.ForEach(d.scalar(), d.listSrc(1), d.body(1))
		d.loops--
		return one(b)
	case c == 7 && !deepLoops:
		// Bounded until: counter initialized just before, stepped down
		// every iteration, and nothing in the body may rewrite it — the
		// trailing Say splices the tree-walker into a lowered loop.
		v := d.scalar()
		start := d.loopTrip(5)
		step := float64(1 + int(d.next())%3)
		return []*blocks.Block{
			blocks.SetVar(v, blocks.Num(start)),
			blocks.Until(blocks.LessThan(blocks.Var(v), blocks.Num(0)),
				blocks.Body(
					blocks.ChangeVar(v, blocks.Num(-step)),
					blocks.Say(blocks.Var(v)))),
		}
	case c == 8:
		return one(blocks.Warp(d.body(1 + int(d.next())%2)))
	case c == 9:
		return one(blocks.Forward(blocks.Num(float64(int8(d.next())))))
	case c == 10:
		return one(blocks.TurnRight(blocks.Num(float64(int8(d.next())))))
	case c == 11:
		return one(blocks.GotoXY(blocks.Num(float64(int8(d.next()))), blocks.Num(float64(int8(d.next())))))
	case c == 12:
		return one(blocks.Say(d.expr(2)))
	case c == 13:
		switch d.next() % 4 {
		case 0:
			return one(blocks.AddToList(d.expr(1), blocks.Var(listVar)))
		case 1:
			return one(blocks.DeleteFromList(d.expr(1), blocks.Var(listVar)))
		case 2:
			return one(blocks.InsertInList(d.expr(1), d.num(9), blocks.Var(listVar)))
		default:
			return one(blocks.ReplaceInList(d.num(9), blocks.Var(listVar), d.expr(1)))
		}
	case c == 14:
		return one(blocks.SetVar(listVar, d.listSrc(2)))
	default:
		return one(blocks.SetVar(d.scalar(), d.expr(2)))
	}
}

// Script decodes a genome: declared and initialized variables, a bounded
// run of statements, and a final result that is set, said (so the serving
// tier — which reports no value — still observes it in the trace and the
// stage snapshot), and reported.
func Script(g Genome) *blocks.Script {
	d := &decoder{data: g}
	bs := []*blocks.Block{
		blocks.DeclareLocal("a", "b", "c", listVar, outVar),
		blocks.SetVar("a", blocks.Num(1)),
		blocks.SetVar("b", blocks.Num(2)),
		blocks.SetVar("c", blocks.Txt("x")),
		blocks.SetVar(listVar, blocks.Numbers(blocks.Num(1), blocks.Num(5))),
	}
	for n := int(d.next()) % 6; n > 0; n-- {
		bs = append(bs, d.stmt()...)
	}
	bs = append(bs,
		blocks.SetVar(outVar, d.expr(3)),
		blocks.Say(blocks.Var(outVar)),
		blocks.Report(blocks.Var(outVar)))
	return blocks.NewScript(bs...)
}

// SpriteName is the sprite every wrapped project runs as — the same name
// the scratch machine uses, so stage snapshots and trace lines align
// across the direct and serving tiers.
const SpriteName = "__main__"

// Project wraps the decoded script as a runnable one-sprite project (the
// serving tier's input), positioned at the scratch machine's origin.
func Project(g Genome) *blocks.Project { return WrapScript(Script(g)) }

// Random draws a fresh genome of n bytes.
func Random(rnd *rand.Rand, n int) Genome {
	g := make(Genome, n)
	for i := range g {
		g[i] = byte(rnd.Intn(256))
	}
	return g
}

// Mutate returns an edited copy: a few point writes, an insertion, a
// deletion, or a duplicated span.
func Mutate(rnd *rand.Rand, g Genome) Genome {
	out := append(Genome(nil), g...)
	for edits := 1 + rnd.Intn(3); edits > 0; edits-- {
		if len(out) == 0 {
			out = append(out, byte(rnd.Intn(256)))
			continue
		}
		switch rnd.Intn(4) {
		case 0: // point write
			out[rnd.Intn(len(out))] = byte(rnd.Intn(256))
		case 1: // insertion
			i := rnd.Intn(len(out) + 1)
			out = append(out[:i], append(Genome{byte(rnd.Intn(256))}, out[i:]...)...)
		case 2: // deletion
			i := rnd.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		default: // duplicate a span onto the tail
			i := rnd.Intn(len(out))
			j := i + 1 + rnd.Intn(len(out)-i)
			out = append(out, out[i:j]...)
		}
	}
	if len(out) > 256 {
		out = out[:256]
	}
	return out
}

// Crossover splices a prefix of a onto a suffix of b.
func Crossover(rnd *rand.Rand, a, b Genome) Genome {
	ca, cb := 0, 0
	if len(a) > 0 {
		ca = rnd.Intn(len(a) + 1)
	}
	if len(b) > 0 {
		cb = rnd.Intn(len(b) + 1)
	}
	out := append(Genome(nil), a[:ca]...)
	out = append(out, b[cb:]...)
	if len(out) > 256 {
		out = out[:256]
	}
	return out
}

// Seeds are fixed starting genomes: a spread of byte textures that decode
// to structurally different programs, so generation zero already covers
// loops, hofs, splices, and the mapReduce family.
func Seeds() []Genome {
	return []Genome{
		{},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		{5, 4, 4, 4, 7, 7, 8, 9, 13, 13, 2, 2, 255, 128, 64, 32},
		Genome("the quick fox jumped over the lazy dog"),
		{3, 19, 5, 19, 4, 19, 3, 19, 2, 19, 1, 19, 0, 19},
		{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00},
		{2, 7, 1, 7, 2, 7, 3, 7, 4, 12, 9, 10, 11, 12, 13, 14, 15, 0},
	}
}
