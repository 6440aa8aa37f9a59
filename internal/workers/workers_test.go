package workers

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func double(v value.Value) (value.Value, error) {
	n, err := value.ToNumber(v)
	if err != nil {
		return nil, err
	}
	return n + n, nil
}

// TestWorkerIsolation pins the worker boundary: each element is
// structured-cloned into the handler and each result cloned back out, so
// neither side sees the other's later mutations.
func TestWorkerIsolation(t *testing.T) {
	var inside *value.List
	sent := value.NewList(value.Number(1))
	got, err := New(value.NewList(sent), Options{MaxWorkers: 2}).Map(func(v value.Value) (value.Value, error) {
		inside = v.(*value.List)
		return inside, nil
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	sent.Add(value.Number(2))
	if inside.Len() != 1 {
		t.Error("worker saw caller's mutation: no clone on send")
	}
	got.MustItem(1).(*value.List).Add(value.Number(3))
	if inside.Len() != 1 {
		t.Error("caller's mutation of reply reached worker: no clone on receive")
	}
}

// TestWorkerHandlesNilAndPanic: a handler may return nil, which comes back
// as Nothing, and a handler that panics fails its job with an error, the
// way a worker's thrown exception surfaces through onerror.
func TestWorkerHandlesNilAndPanic(t *testing.T) {
	h := func(v value.Value) (value.Value, error) {
		if value.IsNothing(v) {
			return nil, nil
		}
		panic("boom")
	}
	got, err := New(value.NewList(value.TheNothing), Options{MaxWorkers: 2}).Map(h).Wait()
	if err != nil || got.Len() != 1 || !value.IsNothing(got.MustItem(1)) {
		t.Errorf("nil round trip: %v %v", got, err)
	}
	_, err = New(value.NewList(value.TheNothing, value.Number(1)), Options{MaxWorkers: 2}).Map(h).Wait()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panic surfaced as %v, want an error naming it, like worker onerror", err)
	}
}

// TestListing1 reproduces Listing 1 of the paper:
//
//	var p = new Parallel([1,2,3,4], {maxWorkers: 2});
//	p.map(mydouble);  // -> [2,4,6,8]
func TestListing1(t *testing.T) {
	p := New(value.FromInts([]int{1, 2, 3, 4}), Options{MaxWorkers: 2})
	if p.MaxWorkers() != 2 {
		t.Error("maxWorkers")
	}
	if p.Data().Len() != 4 {
		t.Error("data accessor")
	}
	got, err := p.Map(double).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "[2 4 6 8]" {
		t.Errorf("p.data = %s, want [2 4 6 8]", got)
	}
}

func TestMapPreservesOrderAcrossPolicies(t *testing.T) {
	in := value.Range(1, 100, 1)
	for _, policy := range []Assignment{Dynamic, Block, Interleaved} {
		p := New(in, Options{MaxWorkers: 7, Assignment: policy})
		got, err := p.Map(double).Wait()
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for i := 1; i <= 100; i++ {
			if got.MustItem(i).(value.Number) != value.Number(2*i) {
				t.Fatalf("%v: item %d = %v", policy, i, got.MustItem(i))
			}
		}
	}
}

func TestMapMoreWorkersThanItems(t *testing.T) {
	p := New(value.FromInts([]int{5}), Options{MaxWorkers: 16})
	got, err := p.Map(double).Wait()
	if err != nil || got.Len() != 1 || got.MustItem(1).(value.Number) != 10 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapEmptyList(t *testing.T) {
	p := New(value.NewList(), Options{MaxWorkers: 4})
	got, err := p.Map(double).Wait()
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}

func TestMapError(t *testing.T) {
	p := New(value.NewList(value.Number(1), value.Text("pear")), Options{MaxWorkers: 2})
	_, err := p.Map(double).Wait()
	if err == nil {
		t.Fatal("expected error from non-numeric element")
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	p := New(value.FromInts([]int{1, 2}), Options{MaxWorkers: 2})
	_, err := p.Map(func(value.Value) (value.Value, error) { panic("kaboom") }).Wait()
	if err == nil {
		t.Fatal("panic in map fn should resolve the job with an error")
	}
}

func TestJobPolling(t *testing.T) {
	// The Listing 2 integration polls Resolved; it must eventually flip
	// and Wait must agree.
	release := make(chan struct{})
	p := New(value.FromInts([]int{1}), Options{MaxWorkers: 1})
	job := p.Map(func(v value.Value) (value.Value, error) {
		<-release
		return v, nil
	})
	if job.Resolved() {
		t.Fatal("job resolved before work ran")
	}
	close(release)
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if !job.Resolved() {
		t.Fatal("job must be resolved after Wait")
	}
}

func TestWorkerLoadsAccountForAllElements(t *testing.T) {
	for _, policy := range []Assignment{Dynamic, Block, Interleaved} {
		p := New(value.Range(1, 50, 1), Options{MaxWorkers: 4, Assignment: policy})
		job := p.Map(double)
		if _, err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, l := range job.WorkerLoads() {
			total += l
		}
		if total != 50 {
			t.Errorf("%v: loads sum to %d, want 50", policy, total)
		}
	}
}

func TestBlockAssignmentIsContiguous(t *testing.T) {
	p := New(value.Range(1, 8, 1), Options{MaxWorkers: 2, Assignment: Block})
	job := p.Map(double)
	job.Wait()
	loads := job.WorkerLoads()
	if loads[0] != 4 || loads[1] != 4 {
		t.Errorf("block loads = %v, want [4 4]", loads)
	}
}

func TestReduceSum(t *testing.T) {
	add := func(a, b value.Value) (value.Value, error) {
		x, err := value.ToNumber(a)
		if err != nil {
			return nil, err
		}
		y, err := value.ToNumber(b)
		if err != nil {
			return nil, err
		}
		return x + y, nil
	}
	for _, w := range []int{1, 2, 3, 8} {
		p := New(value.Range(1, 100, 1), Options{MaxWorkers: w})
		got, err := p.Reduce(add).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got.MustItem(1).(value.Number) != 5050 {
			t.Errorf("w=%d: sum = %v, want 5050", w, got.MustItem(1))
		}
	}
}

func TestReduceEmptyAndErrors(t *testing.T) {
	p := New(value.NewList(), Options{MaxWorkers: 2})
	got, err := p.Reduce(func(a, b value.Value) (value.Value, error) { return a, nil }).Wait()
	if err != nil || !value.IsNothing(got.MustItem(1)) {
		t.Errorf("empty reduce: %v, %v", got, err)
	}
	p2 := New(value.FromInts([]int{1, 2, 3}), Options{MaxWorkers: 1})
	if _, err := p2.Reduce(func(a, b value.Value) (value.Value, error) {
		return nil, errors.New("nope")
	}).Wait(); err == nil {
		t.Error("reduce error should propagate")
	}
	p3 := New(value.FromInts([]int{1, 2}), Options{MaxWorkers: 1})
	if _, err := p3.Reduce(func(a, b value.Value) (value.Value, error) {
		panic("kaboom")
	}).Wait(); err == nil {
		t.Error("reduce panic should propagate as error")
	}
}

func TestAssignmentString(t *testing.T) {
	if Dynamic.String() != "dynamic" || Block.String() != "block" ||
		Interleaved.String() != "interleaved" || Assignment(9).String() != "assignment(9)" {
		t.Error("assignment names")
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("default workers must be positive")
	}
	p := New(value.NewList(), Options{})
	if p.MaxWorkers() != DefaultWorkers() {
		t.Error("zero MaxWorkers should default")
	}
}

// Property: for any input and worker count, parallel map with structured
// clones equals sequential map (determinism / order preservation), and the
// input list is unmodified.
func TestPropertyMapEqualsSequential(t *testing.T) {
	f := func(xs []int8, wRaw uint8) bool {
		w := int(wRaw%8) + 1
		in := value.NewListCap(len(xs))
		for _, x := range xs {
			in.Add(value.Number(float64(x)))
		}
		before := in.String()
		p := New(in, Options{MaxWorkers: w})
		got, err := p.Map(double).Wait()
		if err != nil {
			return false
		}
		if in.String() != before {
			return false
		}
		for i, x := range xs {
			if got.MustItem(i+1).(value.Number) != value.Number(2*float64(x)) {
				return false
			}
		}
		return got.Len() == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: reduce with an associative op matches the sequential fold for
// every policy-independent worker count.
func TestPropertyReduceSum(t *testing.T) {
	add := func(a, b value.Value) (value.Value, error) {
		return a.(value.Number) + b.(value.Number), nil
	}
	f := func(xs []int8, wRaw uint8) bool {
		if len(xs) == 0 {
			return true
		}
		w := int(wRaw%8) + 1
		var want float64
		in := value.NewListCap(len(xs))
		for _, x := range xs {
			want += float64(x)
			in.Add(value.Number(float64(x)))
		}
		got, err := New(in, Options{MaxWorkers: w}).Reduce(add).Wait()
		if err != nil {
			return false
		}
		return float64(got.MustItem(1).(value.Number)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCloneCost(b *testing.B) {
	// Ablation: what the share-nothing postMessage discipline costs
	// versus sharing references (which real workers cannot do).
	in := value.Range(1, 1000, 1)
	for _, noClone := range []bool{false, true} {
		name := "clone"
		if noClone {
			name = "share"
		}
		b.Run(name, func(b *testing.B) {
			p := New(in, Options{MaxWorkers: 4, NoClone: noClone})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Map(double).Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func ExampleParallel_Map() {
	// Listing 1 of the paper, in Go.
	p := New(value.FromInts([]int{1, 2, 3, 4}), Options{MaxWorkers: 2})
	data, _ := p.Map(double).Wait()
	fmt.Println(data)
	// Output: [2 4 6 8]
}

func TestJobCancel(t *testing.T) {
	// A slow map canceled mid-flight resolves with ErrCanceled.
	release := make(chan struct{})
	var started atomic.Bool
	p := New(value.Range(1, 100, 1), Options{MaxWorkers: 2})
	job := p.Map(func(v value.Value) (value.Value, error) {
		if started.CompareAndSwap(false, true) {
			<-release // first element blocks until the test cancels
		}
		return v, nil
	})
	job.Cancel()
	close(release)
	if _, err := job.Wait(); !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	// Canceling after resolution is a no-op.
	p2 := New(value.FromInts([]int{1}), Options{MaxWorkers: 1})
	j2 := p2.Map(double)
	if _, err := j2.Wait(); err != nil {
		t.Fatal(err)
	}
	j2.Cancel()
	if res, err := j2.Wait(); err != nil || res.Len() != 1 {
		t.Errorf("cancel after resolve changed the result: %v, %v", res, err)
	}
	// Reduce cancellation.
	release3 := make(chan struct{})
	var started3 atomic.Bool
	p3 := New(value.Range(1, 1000, 1), Options{MaxWorkers: 1})
	j3 := p3.Reduce(func(a, b value.Value) (value.Value, error) {
		if started3.CompareAndSwap(false, true) {
			<-release3
		}
		return a, nil
	})
	j3.Cancel()
	close(release3)
	if _, err := j3.Wait(); !errors.Is(err, ErrCanceled) {
		t.Errorf("reduce cancel err = %v", err)
	}
}
