package interp

import (
	"strings"
	"testing"

	"repro/internal/blocks"
	"repro/internal/value"
)

func newTestMachine() *Machine {
	return NewMachine(blocks.NewProject("test"), nil)
}

// evalR evaluates one reporter block to a value, failing the test on error.
func evalR(t *testing.T, b *blocks.Block) value.Value {
	t.Helper()
	m := newTestMachine()
	v, err := m.EvalReporter(b)
	if err != nil {
		t.Fatalf("eval %s: %v", b.Describe(), err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		b    *blocks.Block
		want string
	}{
		{blocks.Sum(blocks.Num(2), blocks.Num(3)), "5"},
		{blocks.Difference(blocks.Num(2), blocks.Num(3)), "-1"},
		{blocks.Product(blocks.Num(6), blocks.Num(7)), "42"},
		{blocks.Quotient(blocks.Num(7), blocks.Num(2)), "3.5"},
		{blocks.Modulus(blocks.Num(7), blocks.Num(3)), "1"},
		{blocks.Modulus(blocks.Num(-7), blocks.Num(3)), "2"}, // divisor-sign mod
		{blocks.Round(blocks.Num(2.5)), "3"},
		{blocks.Monadic("sqrt", blocks.Num(49)), "7"},
		{blocks.Monadic("abs", blocks.Num(-3)), "3"},
		{blocks.Monadic("floor", blocks.Num(2.9)), "2"},
		{blocks.Monadic("ceiling", blocks.Num(2.1)), "3"},
		{blocks.Monadic("sin", blocks.Num(90)), "1"},
		{blocks.Monadic("10^", blocks.Num(2)), "100"},
		{blocks.Sum(blocks.Txt("3"), blocks.Num(4)), "7"}, // text coercion
	}
	for _, c := range cases {
		if got := evalR(t, c.b).String(); got != c.want {
			t.Errorf("%s = %s, want %s", c.b.Describe(), got, c.want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	m := newTestMachine()
	for _, b := range []*blocks.Block{
		blocks.Quotient(blocks.Num(1), blocks.Num(0)),
		blocks.Modulus(blocks.Num(1), blocks.Num(0)),
		blocks.Monadic("sqrt", blocks.Num(-1)),
		blocks.Monadic("zorp", blocks.Num(1)),
		blocks.Sum(blocks.Txt("pear"), blocks.Num(1)),
	} {
		if _, err := m.EvalReporter(b); err == nil {
			t.Errorf("%s should error", b.Describe())
		}
		m = newTestMachine()
	}
}

func TestPredicatesAndLogic(t *testing.T) {
	cases := []struct {
		b    *blocks.Block
		want string
	}{
		{blocks.LessThan(blocks.Num(2), blocks.Num(3)), "true"},
		{blocks.GreaterThan(blocks.Num(2), blocks.Num(3)), "false"},
		{blocks.Equals(blocks.Txt("3"), blocks.Num(3)), "true"},
		{blocks.Equals(blocks.Txt("Cat"), blocks.Txt("cat")), "true"},
		{blocks.And(blocks.BoolLit(true), blocks.BoolLit(false)), "false"},
		{blocks.Or(blocks.BoolLit(true), blocks.BoolLit(false)), "true"},
		{blocks.Not(blocks.BoolLit(false)), "true"},
	}
	for _, c := range cases {
		if got := evalR(t, c.b).String(); got != c.want {
			t.Errorf("%s = %s, want %s", c.b.Describe(), got, c.want)
		}
	}
}

func TestTextBlocks(t *testing.T) {
	if got := evalR(t, blocks.Join(blocks.Txt("hello "), blocks.Txt("world"))).String(); got != "hello world" {
		t.Errorf("join = %q", got)
	}
	if got := evalR(t, blocks.Letter(blocks.Num(2), blocks.Txt("cat"))).String(); got != "a" {
		t.Errorf("letter = %q", got)
	}
	if got := evalR(t, blocks.Letter(blocks.Num(9), blocks.Txt("cat"))).String(); got != "" {
		t.Errorf("letter out of range = %q", got)
	}
	if got := evalR(t, blocks.StringSize(blocks.Txt("héllo"))).String(); got != "5" {
		t.Errorf("string size = %q (should count runes)", got)
	}
	if got := evalR(t, blocks.Split(blocks.Txt("a b  c"), blocks.Txt(" "))).String(); got != "[a b c]" {
		t.Errorf("split = %q", got)
	}
	if got := evalR(t, blocks.Split(blocks.Txt("ab"), blocks.Txt(""))).String(); got != "[a b]" {
		t.Errorf("split letters = %q", got)
	}
	if got := evalR(t, blocks.Split(blocks.Txt("a\nb"), blocks.Txt("line"))).String(); got != "[a b]" {
		t.Errorf("split lines = %q", got)
	}
	if got := evalR(t, blocks.Split(blocks.Txt("a,b"), blocks.Txt(","))).String(); got != "[a b]" {
		t.Errorf("split comma = %q", got)
	}
}

func TestListBlocks(t *testing.T) {
	lst := blocks.ListOf(blocks.Num(3), blocks.Num(7), blocks.Num(8))
	if got := evalR(t, lst).String(); got != "[3 7 8]" {
		t.Errorf("list = %s", got)
	}
	if got := evalR(t, blocks.ItemOf(blocks.Num(2), lst)).String(); got != "7" {
		t.Errorf("item = %s", got)
	}
	if got := evalR(t, blocks.LengthOf(lst)).String(); got != "3" {
		t.Errorf("length = %s", got)
	}
	if got := evalR(t, blocks.ListContains(lst, blocks.Num(7))).String(); got != "true" {
		t.Errorf("contains = %s", got)
	}
	if got := evalR(t, blocks.Numbers(blocks.Num(1), blocks.Num(5))).String(); got != "[1 2 3 4 5]" {
		t.Errorf("numbers = %s", got)
	}
	if got := evalR(t, blocks.Numbers(blocks.Num(3), blocks.Num(1))).String(); got != "[3 2 1]" {
		t.Errorf("numbers down = %s", got)
	}
}

func TestListMutationBlocks(t *testing.T) {
	m := newTestMachine()
	m.Project.Globals["L"] = value.NewList()
	m.globalFrame.Declare("L", value.NewList())
	script := blocks.NewScript(
		blocks.AddToList(blocks.Num(1), blocks.Var("L")),
		blocks.AddToList(blocks.Num(3), blocks.Var("L")),
		blocks.InsertInList(blocks.Num(2), blocks.Num(2), blocks.Var("L")),
		blocks.ReplaceInList(blocks.Num(3), blocks.Var("L"), blocks.Num(9)),
		blocks.DeleteFromList(blocks.Num(1), blocks.Var("L")),
		blocks.Report(blocks.Var("L")),
	)
	v, err := m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "[2 9]" {
		t.Errorf("list after mutations = %s, want [2 9]", v)
	}
}

func TestVariablesAndScopes(t *testing.T) {
	m := newTestMachine()
	script := blocks.NewScript(
		blocks.DeclareLocal("x"),
		blocks.SetVar("x", blocks.Num(10)),
		blocks.ChangeVar("x", blocks.Num(5)),
		blocks.Report(blocks.Var("x")),
	)
	v, err := m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "15" {
		t.Errorf("x = %s, want 15", v)
	}
}

func TestUndeclaredVariableErrors(t *testing.T) {
	m := newTestMachine()
	if _, err := m.RunScript(blocks.NewScript(blocks.SetVar("ghost", blocks.Num(1)))); err == nil {
		t.Error("setting an undeclared variable should error")
	}
	m = newTestMachine()
	if _, err := m.RunScript(blocks.NewScript(blocks.Report(blocks.Var("ghost")))); err == nil {
		t.Error("reading an undeclared variable should error")
	}
}

func TestIfElse(t *testing.T) {
	m := newTestMachine()
	script := blocks.NewScript(
		blocks.DeclareLocal("r"),
		blocks.IfElse(blocks.LessThan(blocks.Num(1), blocks.Num(2)),
			blocks.Body(blocks.SetVar("r", blocks.Txt("then"))),
			blocks.Body(blocks.SetVar("r", blocks.Txt("else")))),
		blocks.If(blocks.BoolLit(false),
			blocks.Body(blocks.SetVar("r", blocks.Txt("clobbered")))),
		blocks.Report(blocks.Var("r")),
	)
	v, err := m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "then" {
		t.Errorf("r = %s", v)
	}
}

func TestRepeatAndUntilAndFor(t *testing.T) {
	m := newTestMachine()
	script := blocks.NewScript(
		blocks.DeclareLocal("n"),
		blocks.SetVar("n", blocks.Num(0)),
		blocks.Repeat(blocks.Num(5), blocks.Body(blocks.ChangeVar("n", blocks.Num(1)))),
		blocks.Until(blocks.GreaterThan(blocks.Var("n"), blocks.Num(7)),
			blocks.Body(blocks.ChangeVar("n", blocks.Num(1)))),
		blocks.Report(blocks.Var("n")),
	)
	v, err := m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "8" {
		t.Errorf("n = %s, want 8 (5 from repeat, until passes 7)", v)
	}

	m = newTestMachine()
	script = blocks.NewScript(
		blocks.DeclareLocal("sum"),
		blocks.SetVar("sum", blocks.Num(0)),
		blocks.For("i", blocks.Num(1), blocks.Num(10),
			blocks.Body(blocks.ChangeVar("sum", blocks.Var("i")))),
		blocks.Report(blocks.Var("sum")),
	)
	v, err = m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "55" {
		t.Errorf("sum 1..10 = %s, want 55", v)
	}

	// Downward for loop.
	m = newTestMachine()
	script = blocks.NewScript(
		blocks.DeclareLocal("out"),
		blocks.SetVar("out", blocks.Txt("")),
		blocks.For("i", blocks.Num(3), blocks.Num(1),
			blocks.Body(blocks.SetVar("out", blocks.Reporter(blocks.Join(blocks.Var("out"), blocks.Var("i")))))),
		blocks.Report(blocks.Var("out")),
	)
	v, err = m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "321" {
		t.Errorf("countdown = %s, want 321", v)
	}
}

func TestRepeatZeroAndNegative(t *testing.T) {
	m := newTestMachine()
	script := blocks.NewScript(
		blocks.DeclareLocal("n"),
		blocks.SetVar("n", blocks.Num(0)),
		blocks.Repeat(blocks.Num(0), blocks.Body(blocks.ChangeVar("n", blocks.Num(1)))),
		blocks.Repeat(blocks.Num(-3), blocks.Body(blocks.ChangeVar("n", blocks.Num(1)))),
		blocks.Report(blocks.Var("n")),
	)
	v, err := m.RunScript(script)
	if err != nil || v.String() != "0" {
		t.Errorf("repeat 0/-3 ran the body: n = %v, err %v", v, err)
	}
}

func TestForeverAndStop(t *testing.T) {
	m := newTestMachine()
	script := blocks.NewScript(
		blocks.DeclareLocal("n"),
		blocks.SetVar("n", blocks.Num(0)),
		blocks.Forever(blocks.Body(
			blocks.ChangeVar("n", blocks.Num(1)),
			blocks.If(blocks.GreaterThan(blocks.Var("n"), blocks.Num(9)),
				blocks.Body(blocks.Stop())),
		)),
	)
	if _, err := m.RunScript(script); err != nil {
		t.Fatal(err)
	}
	v, err := m.GlobalFrame().Get("__missing__")
	_ = v
	if err == nil {
		t.Error("sanity: missing global should error")
	}
}

func TestWarpRunsAtomically(t *testing.T) {
	// Two processes increment a shared global; the warped one must
	// finish its loop without interleaving.
	m := newTestMachine()
	m.GlobalFrame().Declare("log", value.NewList())
	spA := blocks.NewSprite("A")
	spA.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
		blocks.Warp(blocks.Body(
			blocks.Repeat(blocks.Num(3), blocks.Body(
				blocks.AddToList(blocks.Txt("A"), blocks.Var("log")))))),
	))
	spB := blocks.NewSprite("B")
	spB.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
		blocks.Repeat(blocks.Num(3), blocks.Body(
			blocks.AddToList(blocks.Txt("B"), blocks.Var("log")))),
	))
	m2 := NewMachine(&blocks.Project{
		Name:    "warp",
		Globals: map[string]value.Value{},
		Sprites: []*blocks.Sprite{spA, spB},
	}, nil)
	m2.GlobalFrame().Declare("log", value.NewList())
	m2.GreenFlag()
	if err := m2.Run(0); err != nil {
		t.Fatal(err)
	}
	logv, _ := m2.GlobalFrame().Get("log")
	s := logv.String()
	if !strings.HasPrefix(s, "[A A A") {
		t.Errorf("warped script should run atomically, log = %s", s)
	}
	_ = m
}

func TestRingsAndCall(t *testing.T) {
	// call (ring (× _ 10)) with 7 → 70 (implicit empty-slot binding).
	v := evalR(t, blocks.Call(blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(10))), blocks.Num(7)))
	if v.String() != "70" {
		t.Errorf("call ring = %s, want 70", v)
	}
	// Named parameters.
	v = evalR(t, blocks.Call(
		blocks.RingOf(blocks.Sum(blocks.Var("a"), blocks.Var("b")), "a", "b"),
		blocks.Num(3), blocks.Num(4)))
	if v.String() != "7" {
		t.Errorf("named-param ring = %s, want 7", v)
	}
	// A single argument fills every empty slot: (_ × _) squares.
	v = evalR(t, blocks.Call(blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Empty())), blocks.Num(9)))
	if v.String() != "81" {
		t.Errorf("square via double empty slot = %s, want 81", v)
	}
	// Calling a plain datum evaluates to itself.
	v = evalR(t, blocks.Call(blocks.Num(5)))
	if v.String() != "5" {
		t.Errorf("call 5 = %s, want 5", v)
	}
}

func TestCommandRingAndReport(t *testing.T) {
	// run a command ring that reports via doReport from inside.
	m := newTestMachine()
	script := blocks.NewScript(
		blocks.DeclareLocal("r"),
		blocks.SetVar("r", blocks.Reporter(blocks.Call(
			blocks.RingScript(blocks.NewScript(
				blocks.Report(blocks.Sum(blocks.Num(20), blocks.Num(22))),
			))))),
		blocks.Report(blocks.Var("r")),
	)
	v, err := m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "42" {
		t.Errorf("command-ring report = %s, want 42", v)
	}
}

func TestRingsAreLexicalClosures(t *testing.T) {
	// A ring captures its defining scope: make an adder.
	m := newTestMachine()
	script := blocks.NewScript(
		blocks.DeclareLocal("k", "f"),
		blocks.SetVar("k", blocks.Num(100)),
		blocks.SetVar("f", blocks.RingOf(blocks.Sum(blocks.Var("k"), blocks.Empty()))),
		blocks.SetVar("k", blocks.Num(5)), // rebinding is visible (shared frame)
		blocks.Report(blocks.Call(blocks.Var("f"), blocks.Num(1))),
	)
	v, err := m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "6" {
		t.Errorf("closure = %s, want 6", v)
	}
}

func TestSequentialMapFigure4(t *testing.T) {
	// Figure 4: map (× _ 10) over (3 7 8) → (30 70 80).
	v := evalR(t, blocks.Map(
		blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(10))),
		blocks.ListOf(blocks.Num(3), blocks.Num(7), blocks.Num(8))))
	if v.String() != "[30 70 80]" {
		t.Errorf("Figure 4 map = %s, want [30 70 80]", v)
	}
}

func TestKeepAndCombine(t *testing.T) {
	v := evalR(t, blocks.Keep(
		blocks.RingOf(blocks.GreaterThan(blocks.Empty(), blocks.Num(2))),
		blocks.ListOf(blocks.Num(1), blocks.Num(2), blocks.Num(3), blocks.Num(4))))
	if v.String() != "[3 4]" {
		t.Errorf("keep = %s", v)
	}
	v = evalR(t, blocks.Combine(
		blocks.Numbers(blocks.Num(1), blocks.Num(100)),
		blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))))
	// Two empty slots with two args bind positionally.
	if v.String() != "5050" {
		t.Errorf("combine sum 1..100 = %s, want 5050", v)
	}
	// Empty list combines to 0.
	v = evalR(t, blocks.Combine(blocks.ListOf(),
		blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))))
	if v.String() != "0" {
		t.Errorf("combine empty = %s", v)
	}
}

func TestForEachSequential(t *testing.T) {
	m := newTestMachine()
	m.GlobalFrame().Declare("acc", value.NewList())
	script := blocks.NewScript(
		blocks.ForEach("item", blocks.ListOf(blocks.Num(1), blocks.Num(2), blocks.Num(3)),
			blocks.Body(blocks.AddToList(blocks.Product(blocks.Var("item"), blocks.Num(2)), blocks.Var("acc")))),
		blocks.Report(blocks.Var("acc")),
	)
	v, err := m.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "[2 4 6]" {
		t.Errorf("forEach acc = %s", v)
	}
}

func TestCustomBlocks(t *testing.T) {
	p := blocks.NewProject("byob")
	p.Customs["double"] = &blocks.CustomBlock{
		Name: "double", Params: []string{"n"}, IsReporter: true,
		Body: blocks.NewScript(blocks.Report(blocks.Sum(blocks.Var("n"), blocks.Var("n")))),
	}
	// Recursive custom block: factorial.
	p.Customs["fact"] = &blocks.CustomBlock{
		Name: "fact", Params: []string{"n"}, IsReporter: true,
		Body: blocks.NewScript(
			blocks.IfElse(blocks.LessThan(blocks.Var("n"), blocks.Num(2)),
				blocks.Body(blocks.Report(blocks.Num(1))),
				blocks.Body(blocks.Report(blocks.Product(blocks.Var("n"),
					blocks.Reporter(blocks.CallCustom("fact", blocks.Difference(blocks.Var("n"), blocks.Num(1))))))))),
	}
	m := NewMachine(p, nil)
	v, err := m.EvalReporter(blocks.CallCustom("double", blocks.Num(21)))
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "42" {
		t.Errorf("double(21) = %s", v)
	}
	m = NewMachine(p, nil)
	v, err = m.EvalReporter(blocks.CallCustom("fact", blocks.Num(10)))
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "3628800" {
		t.Errorf("fact(10) = %s, want 3628800", v)
	}
	m = NewMachine(p, nil)
	if _, err := m.EvalReporter(blocks.CallCustom("nope")); err == nil {
		t.Error("undefined custom block should error")
	}
}

func TestMissingPrimitive(t *testing.T) {
	m := newTestMachine()
	if _, err := m.RunScript(blocks.NewScript(blocks.NewBlock("flyToTheMoon"))); err == nil {
		t.Error("unknown opcode should error")
	}
	if HasPrimitive("flyToTheMoon") {
		t.Error("HasPrimitive lies")
	}
	if !HasPrimitive("reportSum") {
		t.Error("reportSum should exist")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	RegisterPrimitive("reportSum", primRandom)
}

func TestCallFunctionDetached(t *testing.T) {
	// CallFunction is the worker-side evaluator: pure math works...
	ring := &blocks.Ring{Body: blocks.Product(blocks.Empty(), blocks.Num(10))}
	v, err := CallFunction(ring, []value.Value{value.Number(7)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "70" {
		t.Errorf("detached call = %s", v)
	}
	// ...command rings with doReport work...
	ring = &blocks.Ring{Body: blocks.NewScript(
		blocks.Report(blocks.Sum(blocks.Empty(), blocks.Num(1))),
	)}
	v, err = CallFunction(ring, []value.Value{value.Number(41)}, 0)
	if err != nil || v.String() != "42" {
		t.Fatalf("detached command ring = %v, %v", v, err)
	}
	// ...but stage access fails like DOM access in a real worker...
	ring = &blocks.Ring{Body: blocks.NewScript(blocks.Say(blocks.Txt("hi")))}
	if _, err := CallFunction(ring, nil, 0); err == nil {
		t.Error("stage block inside worker should error")
	}
	// ...and infinite loops hit the budget.
	ring = &blocks.Ring{Body: blocks.NewScript(blocks.Forever(blocks.Body()))}
	if _, err := CallFunction(ring, nil, 2000); err == nil {
		t.Error("runaway function should hit the eval budget")
	}
}

func TestCallFunctionClonesArgs(t *testing.T) {
	// The worker boundary must clone: mutating the argument inside the
	// function must not affect the caller's list.
	l := value.NewList(value.Number(1))
	ring := &blocks.Ring{
		Params: []string{"L"},
		Body: blocks.NewScript(
			blocks.AddToList(blocks.Num(2), blocks.Var("L")),
			blocks.Report(blocks.Var("L")),
		),
	}
	v, err := CallFunction(ring, []value.Value{l}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "[1 2]" {
		t.Errorf("worker result = %s", v)
	}
	if l.Len() != 1 {
		t.Error("worker mutated the caller's list: missing structured clone")
	}
}

func TestGreenFlagAndKeyEvents(t *testing.T) {
	// The dragon project of Figure 3: green flag moves, arrow keys turn.
	p := blocks.NewProject("dragon")
	dragon := p.AddSprite(blocks.NewSprite("Dragon"))
	dragon.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
		blocks.Repeat(blocks.Num(3), blocks.Body(blocks.Forward(blocks.Num(10)))),
	))
	dragon.AddScript(blocks.HatKeyPress, "right arrow", blocks.NewScript(
		blocks.TurnRight(blocks.Num(15)),
	))
	dragon.AddScript(blocks.HatKeyPress, "left arrow", blocks.NewScript(
		blocks.TurnLeft(blocks.Num(15)),
	))
	m := NewMachine(p, nil)
	if n := len(m.GreenFlag()); n != 1 {
		t.Fatalf("green flag started %d scripts", n)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	a := m.Stage.Actor("Dragon")
	if a.X != 30 {
		t.Errorf("dragon x = %g, want 30", a.X)
	}
	m.PressKey("right arrow")
	m.Run(0)
	if a.Heading != 105 {
		t.Errorf("heading = %g, want 105", a.Heading)
	}
	m.PressKey("left arrow")
	m.PressKey("left arrow")
	m.Run(0)
	if a.Heading != 75 {
		t.Errorf("heading = %g, want 75", a.Heading)
	}
	if len(m.PressKey("space")) != 0 {
		t.Error("unbound key should start nothing")
	}
}

func TestBroadcastAndWait(t *testing.T) {
	p := blocks.NewProject("bw")
	a := p.AddSprite(blocks.NewSprite("A"))
	b := p.AddSprite(blocks.NewSprite("B"))
	p.Globals["log"] = value.NewList()
	a.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
		blocks.BroadcastAndWait(blocks.Txt("go")),
		blocks.AddToList(blocks.Txt("after"), blocks.Var("log")),
	))
	b.AddScript(blocks.HatBroadcast, "go", blocks.NewScript(
		blocks.Wait(blocks.Num(2)),
		blocks.AddToList(blocks.Txt("handler"), blocks.Var("log")),
	))
	m := NewMachine(p, nil)
	m.GreenFlag()
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	logv, _ := m.GlobalFrame().Get("log")
	if logv.String() != "[handler after]" {
		t.Errorf("broadcast-and-wait order = %s, want [handler after]", logv)
	}
}

func TestPlainBroadcastDoesNotWait(t *testing.T) {
	p := blocks.NewProject("b")
	a := p.AddSprite(blocks.NewSprite("A"))
	b := p.AddSprite(blocks.NewSprite("B"))
	p.Globals["log"] = value.NewList()
	a.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
		blocks.Broadcast(blocks.Txt("go")),
		blocks.AddToList(blocks.Txt("after"), blocks.Var("log")),
	))
	b.AddScript(blocks.HatBroadcast, "go", blocks.NewScript(
		blocks.Wait(blocks.Num(2)),
		blocks.AddToList(blocks.Txt("handler"), blocks.Var("log")),
	))
	m := NewMachine(p, nil)
	m.GreenFlag()
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	logv, _ := m.GlobalFrame().Get("log")
	if logv.String() != "[after handler]" {
		t.Errorf("broadcast order = %s, want [after handler]", logv)
	}
}

func TestClones(t *testing.T) {
	p := blocks.NewProject("clones")
	sp := p.AddSprite(blocks.NewSprite("Pitcher"))
	p.Globals["count"] = value.Number(0)
	sp.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
		blocks.Repeat(blocks.Num(3), blocks.Body(
			blocks.CreateCloneOf(blocks.Txt("myself")))),
	))
	sp.AddScript(blocks.HatCloneStart, "", blocks.NewScript(
		blocks.ChangeVar("count", blocks.Num(1)),
		blocks.DeleteThisClone(),
	))
	m := NewMachine(p, nil)
	m.GreenFlag()
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	count, _ := m.GlobalFrame().Get("count")
	if count.String() != "3" {
		t.Errorf("clone count = %s, want 3", count)
	}
	if m.Stage.CloneCount("Pitcher") != 0 {
		t.Error("all clones should have deleted themselves")
	}
}

func TestTimerAndWait(t *testing.T) {
	p := blocks.NewProject("t")
	sp := p.AddSprite(blocks.NewSprite("S"))
	sp.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
		blocks.ResetTimer(),
		blocks.Wait(blocks.Num(5)),
		blocks.Say(blocks.Timer()),
	))
	m := NewMachine(p, nil)
	m.GreenFlag()
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Stage.Actor("S").Saying; got != "5" {
		t.Errorf("timer after wait 5 = %s", got)
	}
}

// TestDragonInterleaving is experiment E13: three concurrent scripts of one
// sprite interleave under the round-robin time-sliced scheduler — the
// "illusion of parallel execution" of §2.
func TestDragonInterleaving(t *testing.T) {
	p := blocks.NewProject("dragon")
	p.Globals["log"] = value.NewList()
	sp := p.AddSprite(blocks.NewSprite("Dragon"))
	for _, tag := range []string{"a", "b", "c"} {
		sp.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
			blocks.Repeat(blocks.Num(3), blocks.Body(
				blocks.AddToList(blocks.Txt(tag), blocks.Var("log")))),
		))
	}
	m := NewMachine(p, nil)
	m.GreenFlag()
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	logv, _ := m.GlobalFrame().Get("log")
	if logv.String() != "[a b c a b c a b c]" {
		t.Errorf("interleaving = %s, want round-robin [a b c a b c a b c]", logv)
	}
}

func TestRoundLimit(t *testing.T) {
	p := blocks.NewProject("spin")
	sp := p.AddSprite(blocks.NewSprite("S"))
	sp.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
		blocks.Forever(blocks.Body(blocks.Forward(blocks.Num(1)))),
	))
	m := NewMachine(p, nil)
	m.GreenFlag()
	err := m.Run(10)
	if err == nil || !strings.Contains(err.Error(), "round limit") {
		t.Errorf("expected round-limit error, got %v", err)
	}
	m.StopAll()
	if m.Step() {
		t.Error("after StopAll no processes should remain")
	}
}

func TestProcessErrorsSurface(t *testing.T) {
	p := blocks.NewProject("err")
	sp := p.AddSprite(blocks.NewSprite("S"))
	sp.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
		blocks.Say(blocks.Quotient(blocks.Num(1), blocks.Num(0))),
	))
	m := NewMachine(p, nil)
	m.GreenFlag()
	err := m.Run(0)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
	if len(m.Errors()) != 1 {
		t.Errorf("errors = %v", m.Errors())
	}
}

func TestOnDoneFires(t *testing.T) {
	m := newTestMachine()
	sp := blocks.NewSprite("S")
	fired := false
	proc := m.SpawnScript(sp, nil, blocks.NewScript())
	proc.OnDone = func(*Process) { fired = true }
	m.Run(0)
	if !fired {
		t.Error("OnDone should fire when the process completes")
	}
}

func TestRandomBlockDeterministic(t *testing.T) {
	m := newTestMachine()
	m.SeedRand(7)
	v1, err := m.EvalReporter(blocks.Random(blocks.Num(1), blocks.Num(1000)))
	if err != nil {
		t.Fatal(err)
	}
	m2 := newTestMachine()
	m2.SeedRand(7)
	v2, _ := m2.EvalReporter(blocks.Random(blocks.Num(1), blocks.Num(1000)))
	if v1.String() != v2.String() {
		t.Error("seeded random must be reproducible")
	}
	n, _ := value.ToNumber(v1)
	if n < 1 || n > 1000 {
		t.Errorf("random out of range: %v", n)
	}
	// Reversed bounds and float bounds.
	v3, err := m.EvalReporter(blocks.Random(blocks.Num(10), blocks.Num(1)))
	if err != nil {
		t.Fatal(err)
	}
	n3, _ := value.ToNumber(v3)
	if n3 < 1 || n3 > 10 {
		t.Errorf("reversed random out of range: %v", n3)
	}
	v4, err := m.EvalReporter(blocks.Random(blocks.Num(0), blocks.Num(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	n4, _ := value.ToNumber(v4)
	if n4 < 0 || n4 > 0.5 {
		t.Errorf("float random out of range: %v", n4)
	}
}
