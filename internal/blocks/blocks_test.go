package blocks

import (
	"sync"
	"testing"

	"repro/internal/value"
)

func TestDescribe(t *testing.T) {
	// The Figure 4 program: map (× _ 10) over (list 3 7 8).
	b := Map(RingOf(Product(Empty(), Num(10))), ListOf(Num(3), Num(7), Num(8)))
	want := "reportMap(ring(reportProduct(_, 10)), reportNewList(3, 7, 8))"
	if got := b.Describe(); got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
}

func TestDescribeEdgeCases(t *testing.T) {
	if (Literal{}).Describe() != "_" {
		t.Error("nil literal should describe as _")
	}
	if (Literal{Val: value.Text("hi")}).Describe() != `"hi"` {
		t.Error("text literal should be quoted")
	}
	if NewBlock("getTimer").Describe() != "getTimer" {
		t.Error("niladic block describe")
	}
	b := &Block{Op: "x", Inputs: []Node{nil}}
	if b.Describe() != "x(_)" {
		t.Errorf("nil input describe = %q", b.Describe())
	}
	var s *Script
	if s.Describe() != "{}" {
		t.Error("nil script describe")
	}
	r := RingNode{Params: []string{"n"}, Body: Var("n")}
	if r.Describe() != "ring[n](n)" {
		t.Errorf("ring describe = %q", r.Describe())
	}
	if (RingNode{}).Describe() != "ring(_)" {
		t.Error("empty ring describe")
	}
	if HatGreenFlag.String() != "whenGreenFlag" || HatKind(42).String() != "hat(42)" {
		t.Error("hat kind names")
	}
}

func TestBlockInput(t *testing.T) {
	b := Sum(Num(1), nil)
	if _, ok := b.Input(1).(EmptySlot); !ok {
		t.Error("nil input should read as EmptySlot")
	}
	if _, ok := b.Input(5).(EmptySlot); !ok {
		t.Error("out-of-range input should read as EmptySlot")
	}
	if b.Arity() != 2 {
		t.Error("arity")
	}
}

func TestScript(t *testing.T) {
	s := NewScript(SetVar("x", Num(1)))
	s.Append(ChangeVar("x", Num(2)))
	if s.Len() != 2 {
		t.Error("script length")
	}
	var nilS *Script
	if nilS.Len() != 0 {
		t.Error("nil script length")
	}
}

func TestRingValue(t *testing.T) {
	r := &Ring{Body: Product(Empty(), Num(10))}
	if r.Kind() != value.KindRing {
		t.Error("ring kind")
	}
	if r.Clone() != value.Value(r) {
		t.Error("ring clones to itself")
	}
	if r.String() == "" || (&Ring{}).String() != "(ring)" {
		t.Error("ring string")
	}
	// Rings must be storable in lists (first-class procedures).
	l := value.NewList(r)
	if l.MustItem(1) != value.Value(r) {
		t.Error("ring in list")
	}
}

func TestProjectSpriteCustoms(t *testing.T) {
	p := NewProject("demo")
	sp := p.AddSprite(NewSprite("Dragon"))
	sp.AddScript(HatGreenFlag, "", NewScript(Forward(Num(10))))
	sp.AddScript(HatKeyPress, "right arrow", NewScript(TurnRight(Num(15))))
	if p.Sprite("Dragon") != sp || p.Sprite("Missing") != nil {
		t.Error("sprite lookup")
	}
	global := &CustomBlock{Name: "double", Params: []string{"n"}, IsReporter: true}
	local := &CustomBlock{Name: "double", Params: []string{"n"}, IsReporter: true}
	p.Customs["double"] = global
	if p.LookupCustom(sp, "double") != global {
		t.Error("global custom lookup")
	}
	sp.Customs["double"] = local
	if p.LookupCustom(sp, "double") != local {
		t.Error("sprite-local custom should shadow global")
	}
	if p.LookupCustom(nil, "nope") != nil {
		t.Error("missing custom should be nil")
	}
}

func TestParallelBlockShapes(t *testing.T) {
	// parallelMap with the optional worker-count input revealed (§3.2).
	pm := ParallelMap(RingOf(Product(Empty(), Num(10))), Var("data"), Num(4))
	if pm.Op != "reportParallelMap" || pm.Arity() != 3 {
		t.Error("parallelMap shape")
	}
	// parallelForEach in parallel mode with default parallelism (§3.3).
	pfe := ParallelForEach("cup", Var("cups"), Empty(), Body(Say(Var("cup"))))
	if pfe.Op != "doParallelForEach" || pfe.Arity() != 5 {
		t.Error("parallelForEach shape")
	}
	if mode := pfe.Input(4).(Literal).Val.(value.Bool); !bool(mode) {
		t.Error("parallel mode flag")
	}
	seq := ParallelForEachSeq("cup", Var("cups"), Body(Say(Var("cup"))))
	if mode := seq.Input(4).(Literal).Val.(value.Bool); bool(mode) {
		t.Error("sequential mode flag")
	}
	// mapReduce (§3.4).
	mr := MapReduce(RingOf(Empty()), RingOf(Empty()), Var("data"))
	if mr.Op != "reportMapReduce" || mr.Arity() != 3 {
		t.Error("mapReduce shape")
	}
}

// TestAppendKey pins the canonical encoding's rule: equal trees encode
// alike; values that print alike but differ in type do not; nil and
// Nothing stay apart; opaque and ring-valued literals are refused; no
// encoding begins with a zero byte.
func TestAppendKey(t *testing.T) {
	key := func(n Node) string {
		t.Helper()
		enc, ok := AppendKey(nil, n)
		if !ok {
			t.Fatalf("%s: refused", n.Describe())
		}
		if len(enc) == 0 || enc[0] == 0 {
			t.Fatalf("%s: encoding %x opens with a zero byte", n.Describe(), enc)
		}
		return string(enc)
	}
	fig4 := func() Node { return Map(RingOf(Product(Empty(), Num(10))), ListOf(Num(3), Num(7), Num(8))) }
	if key(fig4()) != key(fig4()) {
		t.Fatal("independently built equal trees encode differently")
	}
	distinct := []Node{
		nil, Num(5), Txt("5"), Literal{Val: nil}, Literal{Val: value.Nothing{}},
		Literal{Val: value.Bool(true)}, Literal{Val: value.NewList(value.Number(5))},
		Empty(), Var("x"), Txt("x"), RingNode{Body: Var("x")}, RingNode{Body: Var("x"), Params: []string{"x"}},
		ScriptNode{Script: NewScript()}, NewScript(), (*Script)(nil), NewBlock("x"), fig4(),
	}
	seen := map[string]int{}
	for i, n := range distinct {
		k := key(n)
		if j, dup := seen[k]; dup {
			t.Errorf("case %d encodes like case %d", i, j)
		}
		seen[k] = i
	}
	for name, v := range map[string]value.Value{
		"opaque": opaqueValue{}, "ring": &Ring{Body: Num(1)}, "list of ring": value.NewList(&Ring{Body: Num(1)}),
	} {
		if _, ok := AppendKey(nil, Say(Literal{Val: v})); ok {
			t.Errorf("%s literal: certified", name)
		}
	}
}

// TestAppendKeyConcurrent encodes one shared tree from several goroutines
// at once, as sessions and ring dispatch on pool workers do; a columnar
// list literal makes each encoding read its memoized boxed view.
func TestAppendKeyConcurrent(t *testing.T) {
	tree := func() Node { return Say(Literal{Val: value.FromFloats([]float64{1, 2, 3})}) }
	want, ok := AppendKey(nil, tree())
	if !ok {
		t.Fatal("columnar list literal refused")
	}
	shared := tree()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, _ := AppendKey(nil, shared); string(got) != string(want) {
				t.Errorf("encoding %x, want %x", got, want)
			}
		}()
	}
	wg.Wait()
}

// opaqueValue is a host value the canonical encoding does not know.
type opaqueValue struct{}

func (opaqueValue) Kind() value.Kind   { return value.KindText }
func (opaqueValue) String() string     { return "opaque" }
func (opaqueValue) Clone() value.Value { return opaqueValue{} }
