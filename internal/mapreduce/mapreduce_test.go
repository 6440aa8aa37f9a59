package mapreduce

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

// fig11Input is the word list of the paper's Figure 11 word-count example.
func fig11Input(sentence string) *value.List {
	return value.FromStrings(strings.Fields(sentence))
}

func TestWordCountFigure11(t *testing.T) {
	// "The result of the word count example is a sorted list of unique
	// words from the input with the number of times the words appear."
	in := fig11Input("the quick brown fox jumps over the lazy dog the end")
	res, err := Run(in, WordCount, SumReduce, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"brown: 1", "dog: 1", "end: 1", "fox: 1", "jumps: 1",
		"lazy: 1", "over: 1", "quick: 1", "the: 3",
	}
	got := res.Strings()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Output as a Snap! list of (key value) pairs.
	if l := res.List(); l.Len() != 9 || l.MustItem(9).String() != "[the 3]" {
		t.Errorf("List() = %s", res.List())
	}
}

func TestClimateFigure13(t *testing.T) {
	// F→C conversion then average: 32°F, 212°F, 122°F → 0, 100, 50 °C,
	// average 50°C.
	in := value.FromFloats([]float64{32, 212, 122})
	res, err := Run(in, FahrenheitToCelsius, AvgReduce, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("res = %v", res)
	}
	n, _ := value.ToNumber(res[0].Val)
	if math.Abs(float64(n)-50) > 1e-9 {
		t.Errorf("average = %v, want 50", n)
	}
}

func TestIdentityFunctions(t *testing.T) {
	// §3.4: "the map or reduce functions can express the identity
	// function which passes its input argument through unchanged."
	in := value.FromStrings([]string{"b", "a", "b"})
	res, err := Run(in, nil, nil, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Identity map keys by display string; identity reduce keeps groups.
	if len(res) != 2 || res[0].Key != "a" || res[1].Key != "b" {
		t.Fatalf("res = %v", res)
	}
	if res[1].Val.String() != "[b b]" {
		t.Errorf("identity reduce of group = %s", res[1].Val)
	}
	if res[0].Val.String() != "a" {
		t.Errorf("singleton group should collapse: %s", res[0].Val)
	}
}

func TestSingleKeyAndCount(t *testing.T) {
	in := value.FromFloats([]float64{1, 2, 3, 4})
	res, err := Run(in, SingleKey, CountReduce, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Val.String() != "4" {
		t.Fatalf("count = %v", res)
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Run(value.NewList(), WordCount, SumReduce, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || res.List().Len() != 0 {
		t.Errorf("empty input should reduce to nothing, got %v", res)
	}
}

func TestMapperErrorAndPanic(t *testing.T) {
	in := value.FromFloats([]float64{1})
	if _, err := Run(in, func(value.Value) (string, value.Value, error) {
		return "", nil, errors.New("bad")
	}, SumReduce, Config{}); err == nil {
		t.Error("mapper error should propagate")
	}
	if _, err := Run(in, func(value.Value) (string, value.Value, error) {
		panic("boom")
	}, SumReduce, Config{}); err == nil {
		t.Error("mapper panic should propagate as error")
	}
	if _, err := Run(in, WordCount, func(string, *value.List) (value.Value, error) {
		return nil, errors.New("bad")
	}, Config{}); err == nil {
		t.Error("reducer error should propagate")
	}
	if _, err := Run(in, WordCount, func(string, *value.List) (value.Value, error) {
		panic("boom")
	}, Config{}); err == nil {
		t.Error("reducer panic should propagate as error")
	}
	if _, err := Run(value.FromStrings([]string{"x"}), FahrenheitToCelsius, AvgReduce, Config{}); err == nil {
		t.Error("non-numeric F→C should error")
	}
}

func TestRecursiveAvgMatchesMean(t *testing.T) {
	vals := value.FromFloats([]float64{2, 4, 6, 8, 10})
	v, err := AvgReduce("", vals)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(v.(value.Number))-6) > 1e-9 {
		t.Errorf("avg = %v, want 6", v)
	}
	// Large group takes the iterative path.
	big := make([]float64, 10000)
	for i := range big {
		big[i] = 5
	}
	v, err = AvgReduce("", value.FromFloats(big))
	if err != nil || math.Abs(float64(v.(value.Number))-5) > 1e-9 {
		t.Errorf("large avg = %v, %v", v, err)
	}
	// Empty group.
	v, _ = AvgReduce("", value.NewList())
	if v.String() != "0" {
		t.Errorf("empty avg = %s", v)
	}
}

func TestKVPString(t *testing.T) {
	if (KVP{Key: "k", Val: value.Number(1)}).String() != "k: 1" {
		t.Error("kvp string")
	}
	if (KVP{Key: "k"}).String() != "k:" {
		t.Error("nil-val kvp string")
	}
}

// Property: word count totals match input length, keys are sorted and
// unique, independent of worker count.
func TestPropertyWordCount(t *testing.T) {
	words := []string{"apple", "pear", "fig", "plum"}
	f := func(picks []uint8, wRaw uint8) bool {
		w := int(wRaw%8) + 1
		in := value.NewListCap(len(picks))
		for _, p := range picks {
			in.Add(value.Text(words[int(p)%len(words)]))
		}
		res, err := Run(in, WordCount, SumReduce, Config{Workers: w})
		if err != nil {
			return false
		}
		total := 0.0
		prev := ""
		for i, kv := range res {
			n, err := value.ToNumber(kv.Val)
			if err != nil {
				return false
			}
			total += float64(n)
			if i > 0 && kv.Key <= prev {
				return false // must be sorted and unique
			}
			prev = kv.Key
		}
		return int(total) == len(picks)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the parallel pipeline is deterministic — every worker count
// produces identical results.
func TestPropertyWorkerCountInvariance(t *testing.T) {
	f := func(xs []uint8) bool {
		in := value.NewListCap(len(xs))
		for _, x := range xs {
			in.Add(value.Number(float64(x % 16)))
		}
		base, err := Run(in, WordCount, SumReduce, Config{Workers: 1})
		if err != nil {
			return false
		}
		for _, w := range []int{2, 5} {
			res, err := Run(in, WordCount, SumReduce, Config{Workers: w})
			if err != nil || len(res) != len(base) {
				return false
			}
			for i := range res {
				if res[i].Key != base[i].Key || !value.Equal(res[i].Val, base[i].Val) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
