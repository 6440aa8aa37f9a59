package mapreduce

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/value"
)

// refGroup is one key's values as the reference shuffle groups them.
type refGroup struct {
	key  string
	vals []value.Value
}

// referenceGroup is the original shuffle — stable sort of all pairs by key,
// then grouping adjacent runs — kept here as the executable specification
// the hash-bucket shuffle must match.
func referenceGroup(keys []string, vals []value.Value) []refGroup {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	var groups []refGroup
	for _, i := range order {
		if len(groups) == 0 || groups[len(groups)-1].key != keys[i] {
			groups = append(groups, refGroup{key: keys[i]})
		}
		g := &groups[len(groups)-1]
		g.vals = append(g.vals, vals[i])
	}
	return groups
}

func TestGroupByKeyMatchesSortedReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rnd.Intn(300)
		nkeys := rnd.Intn(40) + 1
		keys := make([]string, n)
		vals := make([]value.Value, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%02d", rnd.Intn(nkeys))
			vals[i] = value.NumInt(i)
		}
		p := newPipeline(kernels[value.Value]{n: n})
		copy(p.keys, keys)
		copy(p.vals, vals)
		p.shuffle()
		want := referenceGroup(keys, vals)
		if len(p.groups) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(p.groups), len(want))
		}
		for i, g := range p.groups {
			if g.key != want[i].key {
				t.Fatalf("trial %d group %d: key %q, want %q", trial, i, g.key, want[i].key)
			}
			gv, wv := value.NewList(p.backing[g.off:g.end]...), value.NewList(want[i].vals...)
			if gv.String() != wv.String() {
				t.Fatalf("trial %d key %q: vals %s, want %s — same-key values must stay in map-emission order",
					trial, g.key, gv, wv)
			}
		}
		p.release()
	}
}

// contain runs one kernel call the way the contract requires: a panic
// becomes an error "<kernel> panic: <value>".
func contain(kernel string, call func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s panic: %v", kernel, r)
		}
	}()
	return call()
}

// referenceRun is the executable specification of the whole engine: map
// every item in order on one goroutine, group with referenceGroup, reduce
// each group in key order. Errors carry the engine's wording.
func referenceRun(input *value.List, m Mapper, r Reducer) (Result, error) {
	var keys []string
	var vals []value.Value
	for i, item := range input.Items() {
		var k string
		var v value.Value
		if err := contain("mapper", func() (err error) {
			k, v, err = m(value.CloneValue(item))
			return err
		}); err != nil {
			return nil, fmt.Errorf("map item %d: %w", i+1, err)
		}
		keys, vals = append(keys, k), append(vals, value.CloneValue(v))
	}
	out := Result{}
	for _, g := range referenceGroup(keys, vals) {
		var v value.Value
		if err := contain("reducer", func() (err error) {
			v, err = r(g.key, value.NewList(g.vals...))
			return err
		}); err != nil {
			return nil, fmt.Errorf("reduce key %q: %w", g.key, err)
		}
		if v == nil {
			v = value.TheNothing
		}
		out = append(out, KVP{Key: g.key, Val: value.CloneValue(v)})
	}
	return out, nil
}
