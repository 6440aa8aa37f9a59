package dist

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mapreduce"
	"repro/internal/value"
)

func words(s string) *value.List {
	return value.FromStrings(strings.Fields(s))
}

func TestDistributedEqualsSingleNode(t *testing.T) {
	in := words("b a c b a b d e a c b f")
	single, err := mapreduce.Run(in, mapreduce.WordCount, mapreduce.SumReduce,
		mapreduce.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 3, 4, 8} {
		distRes, _, err := MapReduce(in, mapreduce.WordCount, mapreduce.SumReduce,
			Config{Nodes: nodes, WorkersPerNode: 2})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if len(distRes) != len(single) {
			t.Fatalf("nodes=%d: %d keys, want %d", nodes, len(distRes), len(single))
		}
		for i := range single {
			if distRes[i].Key != single[i].Key || !value.Equal(distRes[i].Val, single[i].Val) {
				t.Errorf("nodes=%d key %q: %v vs %v",
					nodes, single[i].Key, distRes[i].Val, single[i].Val)
			}
		}
	}
}

func TestShuffleAccounting(t *testing.T) {
	in := words(strings.Repeat("alpha beta gamma delta ", 25)) // 100 words
	_, stats, err := MapReduce(in, mapreduce.WordCount, mapreduce.SumReduce,
		Config{Nodes: 4, WorkersPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShuffleMessages == 0 {
		t.Error("a 4-node word count must shuffle something")
	}
	if stats.ShuffleMessages > 100 {
		t.Errorf("shuffle sent %d messages for 100 pairs", stats.ShuffleMessages)
	}
	if stats.ShuffleBytes < stats.ShuffleMessages*8 {
		t.Error("bytes must count at least the value slot per message")
	}
	var total int64
	for _, n := range stats.PairsPerNode {
		total += n
	}
	if total != 100 {
		t.Errorf("post-shuffle pairs = %d, want 100", total)
	}
	if stats.GatherMessages != 4 {
		t.Errorf("gather = %d result pairs, want 4 distinct words", stats.GatherMessages)
	}
	if im := stats.Imbalance(); im < 1 {
		t.Errorf("imbalance %g < 1 is impossible", im)
	}
}

func TestSingleNodeShufflesNothing(t *testing.T) {
	in := words("x y z x")
	_, stats, err := MapReduce(in, mapreduce.WordCount, mapreduce.SumReduce,
		Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShuffleMessages != 0 || stats.ShuffleBytes != 0 {
		t.Error("one node has nobody to talk to")
	}
}

func TestEmptyInput(t *testing.T) {
	res, stats, err := MapReduce(value.NewList(), mapreduce.WordCount,
		mapreduce.SumReduce, Config{Nodes: 3})
	if err != nil || len(res) != 0 {
		t.Errorf("empty: %v, %v", res, err)
	}
	if stats.Imbalance() != 1 {
		t.Error("empty imbalance should be 1")
	}
}

func TestDefaultsAndClamping(t *testing.T) {
	in := words("a b")
	// More nodes than items: clamps; zero config: defaults.
	res, _, err := MapReduce(in, nil, nil, Config{Nodes: 100})
	if err != nil || len(res) != 2 {
		t.Errorf("clamped run: %v, %v", res, err)
	}
	res, _, err = MapReduce(in, nil, nil, Config{})
	if err != nil || len(res) != 2 {
		t.Errorf("default run: %v, %v", res, err)
	}
}

func TestErrorsPropagate(t *testing.T) {
	in := words("a b c d")
	badMap := func(value.Value) (string, value.Value, error) {
		return "", nil, errors.New("map boom")
	}
	if _, _, err := MapReduce(in, badMap, mapreduce.SumReduce, Config{Nodes: 2}); err == nil {
		t.Error("map error should propagate")
	}
	badReduce := func(string, *value.List) (value.Value, error) {
		return nil, errors.New("reduce boom")
	}
	if _, _, err := MapReduce(in, mapreduce.WordCount, badReduce, Config{Nodes: 2}); err == nil {
		t.Error("reduce error should propagate")
	}
}

func TestInputNotMutated(t *testing.T) {
	in := value.NewList(value.NewList(value.Text("nested")))
	before := in.String()
	_, _, err := MapReduce(in, func(v value.Value) (string, value.Value, error) {
		if l, ok := v.(*value.List); ok {
			l.Add(value.Text("mutant")) // node mutates ITS copy
		}
		return "k", value.Number(1), nil
	}, mapreduce.SumReduce, Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if in.String() != before {
		t.Error("node mutated the coordinator's input: missing clone at partition")
	}
}

// Property: distributed result equals single-node for any word multiset,
// node count, and per-node worker count.
func TestPropertyDistEqualsSingle(t *testing.T) {
	vocab := []string{"red", "green", "blue", "cyan", "plum"}
	f := func(picks []uint8, nodesRaw, wRaw uint8) bool {
		nodes := int(nodesRaw)%6 + 1
		w := int(wRaw)%3 + 1
		in := value.NewListCap(len(picks))
		for _, p := range picks {
			in.Add(value.Text(vocab[int(p)%len(vocab)]))
		}
		single, err := mapreduce.Run(in, mapreduce.WordCount, mapreduce.SumReduce,
			mapreduce.Config{Workers: 1})
		if err != nil {
			return false
		}
		distRes, _, err := MapReduce(in, mapreduce.WordCount, mapreduce.SumReduce,
			Config{Nodes: nodes, WorkersPerNode: w})
		if err != nil || len(distRes) != len(single) {
			return false
		}
		for i := range single {
			if distRes[i].Key != single[i].Key || !value.Equal(distRes[i].Val, single[i].Val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNodeFailureRecovery(t *testing.T) {
	in := words("a b c d e f a b c d e f")
	clean, _, err := MapReduce(in, mapreduce.WordCount, mapreduce.SumReduce,
		Config{Nodes: 4, WorkersPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Crash one node: its partition re-executes elsewhere; the result
	// must be identical.
	res, stats, err := MapReduce(in, mapreduce.WordCount, mapreduce.SumReduce,
		Config{Nodes: 4, WorkersPerNode: 1, FailMapOn: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reexecutions != 1 {
		t.Errorf("re-executions = %d, want 1", stats.Reexecutions)
	}
	if len(res) != len(clean) {
		t.Fatalf("result shape changed: %v vs %v", res, clean)
	}
	for i := range res {
		if res[i].Key != clean[i].Key || !value.Equal(res[i].Val, clean[i].Val) {
			t.Errorf("key %q: %v vs %v", clean[i].Key, res[i].Val, clean[i].Val)
		}
	}
	// Multiple crashes still recover.
	res2, stats2, err := MapReduce(in, mapreduce.WordCount, mapreduce.SumReduce,
		Config{Nodes: 4, WorkersPerNode: 1, FailMapOn: []int{0, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Reexecutions != 3 {
		t.Errorf("re-executions = %d, want 3", stats2.Reexecutions)
	}
	if len(res2) != len(clean) {
		t.Errorf("multi-crash result shape changed")
	}
	// Every node crashing is unrecoverable.
	if _, _, err := MapReduce(in, mapreduce.WordCount, mapreduce.SumReduce,
		Config{Nodes: 2, WorkersPerNode: 1, FailMapOn: []int{0, 1}}); err == nil {
		t.Error("total failure should error")
	}
	// Out-of-range crash IDs are ignored.
	if _, stats3, err := MapReduce(in, mapreduce.WordCount, mapreduce.SumReduce,
		Config{Nodes: 2, WorkersPerNode: 1, FailMapOn: []int{99}}); err != nil || stats3.Reexecutions != 0 {
		t.Errorf("bogus crash id: %v, %d", err, stats3.Reexecutions)
	}
}

// TestValueOrderMatchesSingleNode pins the order a key's values reach its
// reducer: input order, as in single-node Run, however the nodes' map
// phases interleave and even when a crashed partition re-executes last.
// IdentityReduce reports the whole group, so any reordering shows.
func TestValueOrderMatchesSingleNode(t *testing.T) {
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = float64(i)
	}
	in := value.FromFloats(xs)
	single, err := mapreduce.Run(in, mapreduce.SingleKey, mapreduce.IdentityReduce, mapreduce.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := single[0].Val.String()
	for run := 0; run < 50; run++ {
		cfg := Config{Nodes: 4}
		if run == 0 {
			cfg.FailMapOn = []int{0}
		}
		res, _, err := MapReduce(in, mapreduce.SingleKey, mapreduce.IdentityReduce, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Key != "" || res[0].Val.String() != want {
			t.Fatalf("run %d (FailMapOn %v): values reached the reducer out of input order", run, cfg.FailMapOn)
		}
	}
}
