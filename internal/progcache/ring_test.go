package progcache

import (
	"sync"
	"testing"

	"repro/internal/blocks"
	"repro/internal/obs"
	"repro/internal/value"
)

func TestCompileMemoizesSuccess(t *testing.T) {
	rc := NewRings(1 << 20)
	r := ring([]string{"x"}, blocks.NewBlock("reportSum",
		blocks.VarGet{Name: "x"}, blocks.Literal{Val: value.Number(1)}))

	fn1, ok := rc.Compile(r)
	if !ok || fn1 == nil {
		t.Fatal("x+1 should compile")
	}
	fn2, ok := rc.Compile(r)
	if !ok || fn2 == nil {
		t.Fatal("cached compile lost the function")
	}
	v, err := fn2([]value.Value{value.Number(41)})
	if err != nil {
		t.Fatal(err)
	}
	if n, isNum := v.(value.Number); !isNum || n != 42 {
		t.Fatalf("cached fn(41) = %v, want 42", v)
	}
	st := rc.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit", st)
	}
}

// TestCompileMemoizesRefusalOncePerRing is the metering half of the
// tier-decision fix: a refused ring is walked — and its
// engine_compile_fallbacks_total{reason} counter bumped — once per
// distinct ring, not once per dispatch.
func TestCompileMemoizesRefusalOncePerRing(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	rc := NewRings(1 << 20)
	// A command-ring (script body) refuses with reason "script-body".
	refused := &blocks.Ring{Body: blocks.NewScript(blocks.NewBlock("doNothing"))}

	before := obs.CompileFallbacks.Total()
	for i := 0; i < 10; i++ {
		if _, ok := rc.Compile(refused); ok {
			t.Fatal("script-bodied ring must refuse to compile")
		}
	}
	if got := obs.CompileFallbacks.Total() - before; got != 1 {
		t.Fatalf("fallback counter bumped %d times for 10 dispatches of one ring, want 1", got)
	}
	st := rc.Stats()
	if st.Misses != 1 || st.Hits != 9 {
		t.Fatalf("stats = %+v, want 1 miss / 9 hits", st)
	}

	// A second, structurally distinct refused ring meters separately.
	other := &blocks.Ring{Body: blocks.NewScript(blocks.NewBlock("doSomethingElse"))}
	rc.Compile(other)
	if got := obs.CompileFallbacks.Total() - before; got != 2 {
		t.Fatalf("distinct ring did not meter: %d bumps, want 2", got)
	}
}

func TestCompileSkipsCacheForUnhashableRings(t *testing.T) {
	rc := NewRings(1 << 20)
	withEnv := &blocks.Ring{Body: blocks.Literal{Val: value.Number(1)}, Env: struct{}{}}
	if _, ok := rc.Compile(withEnv); ok {
		t.Fatal("env-carrying ring must fall back to the interpreter tier")
	}
	if st := rc.Stats(); st.Misses != 0 && st.Entries != 0 {
		t.Fatalf("unhashable ring polluted the cache: %+v", st)
	}
}

func TestCompileConcurrentHammer(t *testing.T) {
	rc := NewRings(1 << 20)
	r := ring([]string{"x"}, blocks.NewBlock("reportProduct",
		blocks.VarGet{Name: "x"}, blocks.Literal{Val: value.Number(2)}))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				fn, ok := rc.Compile(r)
				if !ok {
					t.Error("2x should compile")
					return
				}
				v, err := fn([]value.Value{value.Number(21)})
				if err != nil || v.(value.Number) != 42 {
					t.Errorf("fn(21) = %v, %v", v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := rc.Stats()
	if st.Misses != 1 {
		t.Fatalf("ring compiled %d times under contention, want 1", st.Misses)
	}
}

// TestPairBuildsOncePerOrderedPair pins the kernel-set memo: one build per
// distinct ordered pair, kept apart from the pair reversed and from either
// ring's own compile outcome, and a direct build when a ring has no
// content address.
func TestPairBuildsOncePerOrderedPair(t *testing.T) {
	rc := NewRings(1 << 20)
	a := ring(nil, blocks.NewBlock("reportSum", blocks.EmptySlot{}, blocks.Literal{Val: value.Number(1)}))
	b := ring(nil, blocks.NewBlock("reportListLength", blocks.EmptySlot{}))
	builds := 0
	build := func() int { builds++; return builds }
	for i := 0; i < 3; i++ {
		if got := Pair(rc, a, b, build); got != 1 {
			t.Fatalf("Pair(a, b) = build %d, want the first", got)
		}
	}
	if got := Pair(rc, b, a, build); got != 2 {
		t.Fatalf("Pair(b, a) = build %d, want a second build", got)
	}
	if _, ok := rc.Compile(a); !ok {
		t.Fatal("a should compile next to its pair entries")
	}
	if st := rc.Stats(); st.Misses != 3 || st.Hits != 2 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 misses / 2 hits / 3 entries", st)
	}
	withEnv := &blocks.Ring{Body: b.Body, Env: struct{}{}}
	Pair(rc, a, withEnv, build)
	Pair(rc, a, withEnv, build)
	if builds != 4 {
		t.Fatalf("%d builds, want an unhashable pair built on every call", builds)
	}
	if Pair[int](nil, a, b, build) != 5 {
		t.Fatal("a nil tier must build directly")
	}
}

// TestPairKeysDisjointFromRingKeys proves a kernel-set key can never be a
// single ring's key: every pair encoding opens with the zero byte, which
// no single ring's encoding begins with, so the two encodings (and so
// their SHA-256 keys) differ for any rings.
func TestPairKeysDisjointFromRingKeys(t *testing.T) {
	rings := []*blocks.Ring{
		ring(nil, nil),
		ring(nil, blocks.EmptySlot{}),
		ring([]string{"x"}, blocks.VarGet{Name: "x"}),
		ring(nil, blocks.NewScript()),
		ring(nil, blocks.NewBlock("reportSum", blocks.EmptySlot{}, blocks.Literal{Val: value.Number(0)})),
	}
	for i, a := range rings {
		enc, ok := appendRing(nil, a)
		if !ok || len(enc) == 0 || enc[0] == pairDomain {
			t.Fatalf("ring %d: encoding %x opens the pair domain", i, enc)
		}
		for j, b := range rings {
			pair, ok := appendPair(nil, a, b)
			if !ok || pair[0] != pairDomain {
				t.Fatalf("pair (%d, %d): encoding %x does not open the pair domain", i, j, pair)
			}
			pk, _, _ := hashRingPair(a, b)
			for k, c := range rings {
				if rk, _, _ := hashRing(c); rk == pk {
					t.Fatalf("pair (%d, %d) shares a key with ring %d", i, j, k)
				}
			}
		}
	}
}
