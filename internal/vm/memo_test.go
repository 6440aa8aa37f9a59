package vm

import (
	"testing"

	"repro/internal/blocks"
	"repro/internal/value"
)

// sayScript builds `set v to (v + x); say x`, a script that lowers to
// bytecode, fresh on every call.
func sayScript(x blocks.Node) *blocks.Script {
	return blocks.NewScript(
		blocks.SetVar("v", blocks.Sum(blocks.Var("v"), blocks.Num(1))),
		blocks.Say(x))
}

// TestMemoSharesStructurallyEqualScripts: two independently built,
// structurally equal scripts resolve to one cached program, and a warm
// hit allocates nothing.
func TestMemoSharesStructurallyEqualScripts(t *testing.T) {
	a, b := sayScript(blocks.Num(5)), sayScript(blocks.Num(5))
	pa := Lookup(a)
	if pa == nil {
		t.Fatal("script did not lower")
	}
	if pb := Lookup(b); pb != pa {
		t.Fatal("structurally equal scripts got different programs")
	}
	if allocs := testing.AllocsPerRun(100, func() { Lookup(b) }); allocs != 0 {
		t.Fatalf("warm memo hit allocates %v times, want 0", allocs)
	}
}

// TestMemoKeepsValuesDistinct: literals that print alike but differ in
// type (the text "5" and the number 5, nil and Nothing) key apart.
func TestMemoKeepsValuesDistinct(t *testing.T) {
	pairs := []struct {
		name string
		x, y blocks.Node
	}{
		{`"5" vs 5`, blocks.Txt("5"), blocks.Num(5)},
		{"nil vs Nothing", blocks.Literal{Val: nil}, blocks.Literal{Val: value.Nothing{}}},
	}
	for _, p := range pairs {
		px, py := Lookup(sayScript(p.x)), Lookup(sayScript(p.y))
		if px == nil || py == nil {
			t.Fatalf("%s: script did not lower", p.name)
		}
		if px == py {
			t.Errorf("%s: shared one program", p.name)
		}
	}
}

// opaqueValue is a host value the canonical encoding does not know.
type opaqueValue struct{}

func (opaqueValue) Kind() value.Kind   { return value.KindText }
func (opaqueValue) String() string     { return "opaque" }
func (opaqueValue) Clone() value.Value { return opaqueValue{} }

// TestMemoLowersUncertifiableScriptsInPlace: a script whose literal has no
// content address (an opaque host value, a ring value) bypasses the memo
// and lowers afresh on every lookup.
func TestMemoLowersUncertifiableScriptsInPlace(t *testing.T) {
	for name, v := range map[string]value.Value{
		"opaque": opaqueValue{},
		"ring":   &blocks.Ring{Body: blocks.Num(1)},
	} {
		s := sayScript(blocks.Literal{Val: v})
		p1, p2 := Lookup(s), Lookup(s)
		if p1 == nil || p2 == nil {
			t.Fatalf("%s: script did not lower", name)
		}
		if p1 == p2 {
			t.Errorf("%s literal: program came from the memo", name)
		}
	}
}

// TestSetProgramMutatorFlushesMemo: programs lowered before a mutator
// change are not served after it, in either direction.
func TestSetProgramMutatorFlushesMemo(t *testing.T) {
	s := sayScript(blocks.Num(7))
	before := Lookup(s)
	SetProgramMutator(func(*Program) {})
	mutated := Lookup(s)
	SetProgramMutator(nil)
	after := Lookup(s)
	if mutated == before || after == mutated {
		t.Fatal("a program lowered under another mutator came from the memo")
	}
	if Lookup(s) != after {
		t.Fatal("the memo stopped serving after the flush")
	}
}
