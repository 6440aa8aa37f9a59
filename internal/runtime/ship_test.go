package runtime

import (
	"context"
	"fmt"
	"slices"
	"testing"
)

// TestParallelBlocksShipTheirList is the regression test for workers that
// read the caller's live list: one script runs a parallel block over L
// while a second keeps replacing L's first item and growing it. Each
// block works on the copy it shipped when its job started, so the session
// ends ok with the answer for the list as it stood then, and the race
// detector sees no worker read of a list the interpreter writes.
func TestParallelBlocksShipTheirList(t *testing.T) {
	for _, tc := range []struct{ name, expr, say string }{
		{"parallelmap", `(length (parallelmap (ring (* _ 2)) $L 2))`, "20000"},
		{"parallelkeep", `(length (parallelkeep (ring (> _ 10)) $L 2))`, "19990"},
		{"parallelcombine", `(parallelcombine $L (ring (+ _ _)) 2)`, "200010000"},
	} {
		for _, on := range []bool{true, false} {
			name := tc.name + "/vm=false"
			if on {
				name = tc.name + "/vm=true"
			}
			t.Run(name, func(t *testing.T) {
				withVM(on, func() {
					src := `
						(project "ship"
						  (sprite "S"
						    (local L 0)
						    (when green-flag (do
						      (set L (numbers 1 20000))
						      (say ` + tc.expr + `)))
						    (when green-flag (do
						      (wait 0)
						      (repeat 2000 (do (replace 1 $L "zz") (add 7 $L)))))))`
					s, err := NewManager(Config{}).Run(context.Background(), mustProject(t, src), Limits{})
					if err != nil {
						t.Fatal(err)
					}
					res, _ := s.Result()
					if res.Status != StatusOK {
						t.Fatalf("status = %s (%s), want ok", res.Status, res.Error)
					}
					if want := `[t=0] S says "` + tc.say + `"`; !slices.Contains(res.Trace, want) {
						t.Fatalf("trace %q lacks %q", res.Trace, want)
					}
				})
			})
		}
	}
}

// TestParallelBlocksShipEachItemApart is the regression test for a
// shipped list that kept two items aliased: the list holds one list A
// many times, and the ring grows its argument before measuring it. Each
// item is shipped as a copy of its own, so every call sees a fresh
// [1 2 3] — at one worker as at four, and on either tier — and A itself
// is left as it was.
func TestParallelBlocksShipEachItemApart(t *testing.T) {
	const grow = `(ring (do (add 1 _) (report (length _))))`
	const aliased = `(list $A $A $A $A)`
	const keep4 = `(ring (do (add 1 _) (report (= (length _) 4))))`
	for _, tc := range []struct{ name, expr, say string }{
		{"parallelmap/w=1", `(parallelmap ` + grow + ` ` + aliased + ` 1)`, "[4 4 4 4]"},
		{"parallelmap/w=4", `(parallelmap ` + grow + ` ` + aliased + ` 4)`, "[4 4 4 4]"},
		{"parallelkeep/w=1", `(length (parallelkeep ` + keep4 + ` ` + aliased + ` 1))`, "4"},
		{"parallelkeep/w=4", `(length (parallelkeep ` + keep4 + ` ` + aliased + ` 4))`, "4"},
		// 100 items, past the synchronous cutoff: the engine runs as a job.
		{"mapreduce", `(mapreduce (ring (do (add 1 _) (report (list "k" (length _))))) (ring (combine _ (ring (+ _ _)))) (map (ring $A) (numbers 1 100)))`, "[[k 400]]"},
	} {
		for _, on := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/vm=%v", tc.name, on), func(t *testing.T) {
				withVM(on, func() {
					src := `
						(project "alias"
						  (sprite "S"
						    (local A 0)
						    (when green-flag (do
						      (set A (list 1 2 3))
						      (say ` + tc.expr + `)
						      (say (length $A))))))`
					s, err := NewManager(Config{}).Run(context.Background(), mustProject(t, src), Limits{})
					if err != nil {
						t.Fatal(err)
					}
					res, _ := s.Result()
					if res.Status != StatusOK {
						t.Fatalf("status = %s (%s), want ok", res.Status, res.Error)
					}
					want := []string{`[t=0] S says "` + tc.say + `"`, `[t=0] S says "3"`}
					if !slices.Equal(res.Trace, want) {
						t.Fatalf("trace = %q, want %q", res.Trace, want)
					}
				})
			})
		}
	}
}
