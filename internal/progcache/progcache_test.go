package progcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blocks"
	"repro/internal/value"
)

func TestGetHitMissAndStats(t *testing.T) {
	c := newCache("project", 1<<20)
	loads := 0
	load := func() (any, int64) { loads++; return "v", 100 }

	v, out := c.get("k", load)
	if v != "v" || out != OutcomeMiss {
		t.Fatalf("first get = %v, %v; want v, miss", v, out)
	}
	v, out = c.get("k", load)
	if v != "v" || out != OutcomeHit {
		t.Fatalf("second get = %v, %v; want v, hit", v, out)
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
	st := c.snapshot()
	want := Stats{Hits: 1, Misses: 1, Bytes: 100, Entries: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	c := newCache("project", 250)
	at := func(k string) { // cost 100 each: budget fits two entries
		c.get(k, func() (any, int64) { return k, 100 })
	}
	at("a")
	at("b")
	at("a") // touch a: b is now least recently used
	at("c") // 300 bytes > 250: evicts b

	if _, out := c.get("a", func() (any, int64) { return "a", 100 }); out != OutcomeHit {
		t.Fatalf("a should have survived eviction, got %v", out)
	}
	if _, out := c.get("c", func() (any, int64) { return "c", 100 }); out != OutcomeHit {
		t.Fatalf("c should be resident, got %v", out)
	}
	// Reading b now is a miss that re-evicts something; check the counter
	// before perturbing the cache further.
	st := c.snapshot()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if _, out := c.get("b", func() (any, int64) { return "b", 100 }); out != OutcomeMiss {
		t.Fatalf("b should have been evicted, got %v", out)
	}
}

func TestOversizedEntryStillReturnedToCaller(t *testing.T) {
	c := newCache("project", 10)
	v, out := c.get("huge", func() (any, int64) { return "huge-value", 1000 })
	if v != "huge-value" || out != OutcomeMiss {
		t.Fatalf("get = %v, %v; want huge-value, miss", v, out)
	}
	st := c.snapshot()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized entry should be evicted on insert: %+v", st)
	}
}

func TestSingleflightSharesOneLoad(t *testing.T) {
	const callers = 16
	c := newCache("project", 1<<20)
	var loads atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{})

	var wg sync.WaitGroup
	outcomes := make([]Outcome, callers)
	wg.Add(1)
	go func() { // the leader: its load blocks until every follower queued up
		defer wg.Done()
		_, outcomes[0] = c.get("k", func() (any, int64) {
			loads.Add(1)
			close(entered)
			<-gate
			return "v", 10
		})
	}()
	<-entered
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out := c.get("k", func() (any, int64) {
				loads.Add(1)
				return "v", 10
			})
			if v != "v" {
				t.Errorf("caller %d got %v", i, v)
			}
			outcomes[i] = out
		}(i)
	}
	// Give the followers a moment to park on the flight, then release.
	// Even if some arrive after the load finishes, they score hits — the
	// invariant under test is that the loader runs exactly once.
	close(gate)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	st := c.snapshot()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if got := st.Hits + st.SharedLoads + st.Misses; got != callers {
		t.Fatalf("hits+shared+misses = %d, want %d", got, callers)
	}
}

func TestDisabledTiersPassThrough(t *testing.T) {
	var p *Projects // nil: disabled
	loads := 0
	for i := 0; i < 3; i++ {
		ent, out := p.Get("src", "auto", func() *ProjectEntry {
			loads++
			return &ProjectEntry{ParseErr: "x"}
		})
		if ent == nil || out != OutcomeMiss {
			t.Fatalf("disabled Get = %v, %v", ent, out)
		}
	}
	if loads != 3 {
		t.Fatalf("disabled cache memoized: %d loads, want 3", loads)
	}
	if NewProjects(-1) != nil || NewRings(0) != nil {
		t.Fatal("non-positive budgets must disable the tier")
	}
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("disabled stats = %+v, want zero", st)
	}
}

func TestProjectsGetCachesByBodyAndFormat(t *testing.T) {
	p := NewProjects(1 << 20)
	loads := 0
	load := func() *ProjectEntry { loads++; return &ProjectEntry{} }

	p.Get("(project)", "auto", load)
	p.Get("(project)", "auto", load)
	p.Get("(project)", "sblk", load) // same bytes, different format: distinct key
	if loads != 2 {
		t.Fatalf("loads = %d, want 2 (format is part of the key)", loads)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

// ring builds a shipped reporter ring for hashing tests.
func ring(params []string, body blocks.Node) *blocks.Ring {
	return &blocks.Ring{Body: body, Params: params}
}

func TestHashRingStructural(t *testing.T) {
	num := func(f float64) blocks.Node { return blocks.Literal{Val: value.Number(f)} }
	txt := func(s string) blocks.Node { return blocks.Literal{Val: value.Text(s)} }

	a1, _, ok1 := hashRing(ring([]string{"x"}, blocks.NewBlock("reportSum", blocks.VarGet{Name: "x"}, num(5))))
	a2, _, ok2 := hashRing(ring([]string{"x"}, blocks.NewBlock("reportSum", blocks.VarGet{Name: "x"}, num(5))))
	if !ok1 || !ok2 || a1 != a2 {
		t.Fatal("identical rings must share a content address")
	}

	cases := []*blocks.Ring{
		ring([]string{"y"}, blocks.NewBlock("reportSum", blocks.VarGet{Name: "x"}, num(5))),   // param name
		ring([]string{"x"}, blocks.NewBlock("reportSum", blocks.VarGet{Name: "x"}, num(6))),   // literal value
		ring([]string{"x"}, blocks.NewBlock("reportSum", blocks.VarGet{Name: "x"}, txt("5"))), // text "5" vs number 5
		ring([]string{"x"}, blocks.NewBlock("reportProduct", blocks.VarGet{Name: "x"}, num(5))),
	}
	for i, r := range cases {
		k, _, ok := hashRing(r)
		if !ok {
			t.Fatalf("case %d: not hashable", i)
		}
		if k == a1 {
			t.Fatalf("case %d: collided with the base ring", i)
		}
	}

	// nil and Nothing print alike but are different values.
	kNil, _, okNil := hashRing(ring(nil, blocks.Literal{Val: nil}))
	kNothing, _, okNothing := hashRing(ring(nil, blocks.Literal{Val: value.Nothing{}}))
	if !okNil || !okNothing || kNil == kNothing {
		t.Fatal("nil and Nothing literals must hash apart")
	}
}

func TestHashRingRefusesUnstableAddresses(t *testing.T) {
	if _, _, ok := hashRing(nil); ok {
		t.Fatal("nil ring must not hash")
	}
	withEnv := &blocks.Ring{Body: blocks.Literal{Val: value.Number(1)}, Env: struct{}{}}
	if _, _, ok := hashRing(withEnv); ok {
		t.Fatal("ring with captured environment must not hash")
	}
	opaque := ring(nil, blocks.Literal{Val: opaqueValue{}})
	if _, _, ok := hashRing(opaque); ok {
		t.Fatal("ring with an opaque literal must not hash")
	}
	ringValued := ring(nil, blocks.Literal{Val: ring(nil, blocks.Literal{Val: value.Number(1)})})
	if _, _, ok := hashRing(ringValued); ok {
		t.Fatal("ring with a ring-valued literal must not hash")
	}
}

// opaqueValue is a host value the canonical encoding does not know.
type opaqueValue struct{}

func (opaqueValue) Kind() value.Kind   { return value.KindText }
func (opaqueValue) String() string     { return "opaque" }
func (opaqueValue) Clone() value.Value { return opaqueValue{} }

func TestHashBodyIncludesFormat(t *testing.T) {
	if hashBody("<project/>", "xml") == hashBody("<project/>", "auto") {
		t.Fatal("format must be part of the Tier A key")
	}
	// Length-prefixed: format/src boundary cannot be shifted.
	if hashBody("ab", "c") == hashBody("b", "ca") {
		t.Fatal("format/src boundary must be unambiguous")
	}
}

func TestConcurrentGetIsRaceFree(t *testing.T) {
	c := newCache("project", 500) // small budget: force concurrent evictions
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%10)
				v, _ := c.get(k, func() (any, int64) { return k, 100 })
				if v != k {
					t.Errorf("got %v for key %s", v, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
