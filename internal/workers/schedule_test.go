package workers

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/value"
)

// contractConsumer is one of the jobs built on the chunk loop, driven by
// a per-element hook: visit(i) runs on element i (0-based) and its error
// or panic fails the element.
type contractConsumer struct {
	name string
	// assignments the consumer runs under (Reduce is always Block).
	assignments []Assignment
	// first is the element executor 0 visits first.
	first int
	start func(n, w int, a Assignment, visit func(i int) error) *Job
	// errText and panicText are how a failure of element i with message
	// msg is reported.
	errText, panicText func(i int, msg string) string
}

func elementIndex(v value.Value) int {
	n, _ := value.ToNumber(v)
	return int(n) - 1
}

var contractConsumers = []contractConsumer{
	{
		name:        "Map",
		assignments: []Assignment{Dynamic, Block, Interleaved},
		start: func(n, w int, a Assignment, visit func(int) error) *Job {
			return New(intList(n), Options{MaxWorkers: w, Assignment: a}).Map(func(v value.Value) (value.Value, error) {
				return v, visit(elementIndex(v))
			})
		},
		errText:   func(i int, msg string) string { return fmt.Sprintf("element %d: %s", i+1, msg) },
		panicText: func(i int, msg string) string { return fmt.Sprintf("element %d: worker script error: %s", i+1, msg) },
	},
	{
		name:        "MapChunks",
		assignments: []Assignment{Dynamic, Block, Interleaved},
		start: func(n, w int, a Assignment, visit func(int) error) *Job {
			return New(intList(n), Options{MaxWorkers: w, Assignment: a}).MapChunks(func(j *Job, base int, dst, src []value.Value) error {
				for k, in := range src {
					if j.Canceled() {
						return ErrCanceled
					}
					if err := visit(base + k); err != nil {
						return fmt.Errorf("element %d: %w", base+k+1, err)
					}
					dst[k] = in
				}
				return nil
			})
		},
		errText:   func(i int, msg string) string { return fmt.Sprintf("element %d: %s", i+1, msg) },
		panicText: func(i int, msg string) string { return "worker script error: " + msg },
	},
	{
		name:        "Reduce",
		assignments: []Assignment{Block},
		first:       1, // the first fold is items[0] with items[1]
		start: func(n, w int, _ Assignment, visit func(int) error) *Job {
			return New(intList(n), Options{MaxWorkers: w}).Reduce(func(a, b value.Value) (value.Value, error) {
				return b, visit(elementIndex(b))
			})
		},
		errText:   func(i int, msg string) string { return msg },
		panicText: func(i int, msg string) string { return "worker script error: " + msg },
	},
}

// contractN is odd-sized so the chunks are ragged, and element n-1 never
// belongs to executor 0 at w ∈ {2, 3, 8} under any assignment.
const contractN = 66

// TestChunkContract pins the contract every job on the chunk loop shares,
// at several worker counts and under each assignment: the lowest failing
// element is reported, in the consumer's own wording, for errors and
// panics alike; a cancel set mid-run stops further claims and resolves
// ErrCanceled; and an element's error outranks a concurrent cancel.
func TestChunkContract(t *testing.T) {
	failing := map[int]bool{4: true, 20: true, 39: true} // never a chunk's first element
	for _, c := range contractConsumers {
		for _, a := range c.assignments {
			for _, w := range []int{1, 2, 3, 8} {
				name := fmt.Sprintf("%s/%s/w=%d", c.name, a, w)
				t.Run(name+"/lowest error", func(t *testing.T) {
					_, err := c.start(contractN, w, a, func(i int) error {
						if failing[i] {
							return fmt.Errorf("bad %d", i)
						}
						return nil
					}).Wait()
					if want := c.errText(4, "bad 4"); err == nil || err.Error() != want {
						t.Fatalf("err = %v, want %q", err, want)
					}
				})
				t.Run(name+"/lowest panic", func(t *testing.T) {
					_, err := c.start(contractN, w, a, func(i int) error {
						if failing[i] {
							panic(fmt.Sprintf("boom %d", i))
						}
						return nil
					}).Wait()
					if want := c.panicText(4, "boom 4"); err == nil || err.Error() != want {
						t.Fatalf("err = %v, want %q", err, want)
					}
				})
				t.Run(name+"/cancel stops claims", func(t *testing.T) {
					// Every visit waits until the job is canceled, so only
					// the chunks already in flight may visit an element.
					const n = 4096
					ready := make(chan struct{})
					var visited atomic.Int64
					job := c.start(n, w, a, func(int) error {
						<-ready
						visited.Add(1)
						return nil
					})
					job.Cancel()
					close(ready)
					if _, err := job.Wait(); err != ErrCanceled {
						t.Fatalf("err = %v, want ErrCanceled", err)
					}
					if got := visited.Load(); got > int64(w) {
						t.Fatalf("visited %d elements after the cancel, want at most one per executor (%d)", got, w)
					}
				})
				if w == 1 {
					continue // a lone executor has nothing to run concurrently
				}
				t.Run(name+"/error outranks cancel", func(t *testing.T) {
					// Executor 0 holds its first element until the last
					// element has failed on another executor and the job
					// is canceled, so it then stops on the cancel.
					failed := make(chan struct{})
					release := make(chan struct{})
					job := c.start(contractN, w, a, func(i int) error {
						switch i {
						case c.first:
							<-release
						case contractN - 1:
							close(failed)
							return fmt.Errorf("bad %d", i)
						}
						return nil
					})
					<-failed
					job.Cancel()
					close(release)
					_, err := job.Wait()
					if want := c.errText(contractN-1, fmt.Sprintf("bad %d", contractN-1)); err == nil || err.Error() != want {
						t.Fatalf("err = %v, want %q", err, want)
					}
				})
			}
		}
	}
}

// TestChunkLoopResolvesOnce pins the loop's completion: whether it
// finishes, fails or is canceled, resolve runs exactly once, after every
// executor has stopped.
func TestChunkLoopResolvesOnce(t *testing.T) {
	outcomes := map[string]func(lo int) error{
		"ok":       func(int) error { return nil },
		"fail":     func(lo int) error { return fmt.Errorf("chunk %d", lo) },
		"canceled": func(int) error { return ErrCanceled },
	}
	for name, outcome := range outcomes {
		for _, a := range []Assignment{Dynamic, Block, Interleaved} {
			for _, w := range []int{1, 2, 3, 8} {
				for _, all := range []bool{false, true} {
					var resolved atomic.Int32
					done := make(chan error, 2)
					l := &chunkLoop{n: 100, w: w, grain: 3, assign: a, allWorkers: all,
						fn:      func(_, lo, _ int) error { return outcome(lo) },
						resolve: func(err error) { resolved.Add(1); done <- err }}
					l.start()
					err := <-done
					if got := resolved.Load(); got != 1 || l.pending.Load() != 0 {
						t.Fatalf("%s %s w=%d all=%v: resolved %d times with %d executors running", name, a, w, all, got, l.pending.Load())
					}
					switch name {
					case "ok":
						if err != nil {
							t.Fatalf("%s %s w=%d: err = %v", name, a, w, err)
						}
					case "fail":
						if err == nil || err.Error() != "chunk 0" {
							t.Fatalf("%s %s w=%d: err = %v, want the lowest chunk's", name, a, w, err)
						}
					case "canceled":
						if err != ErrCanceled {
							t.Fatalf("%s %s w=%d: err = %v, want ErrCanceled", name, a, w, err)
						}
					}
				}
			}
		}
	}
}
