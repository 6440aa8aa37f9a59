// Package progcache_test holds the cross-package immutability guard: the
// cached artifacts progcache hands out are shared by every session, so
// sessions must never write through them. The test lives in an external
// test package because it drives the real runtime (runtime -> core ->
// progcache would cycle otherwise).
package progcache_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/parse"
	"repro/internal/runtime"
	"repro/internal/value"
)

// mutatorSrc hits both mutation routes out of a shared AST: a global list
// (declared in Project.Globals, mutated by doAddToList) and a local
// variable seeded from the sprite's Variables map.
const mutatorSrc = `
	(project "mutator"
	  (global g (list 1 2 3))
	  (sprite "S"
	    (local n 0)
	    (when green-flag (do
	      (add "extra" g)
	      (add "more" g)
	      (change n 1)
	      (say (length g))))))`

// TestCachedProjectImmutableAcrossSessions hammers one cached Project
// from 16 concurrent sessions, each of which appends to a global list.
// If the interpreter failed to clone initial values out of the shared
// AST, sessions would race on one *value.List (caught by -race) and the
// cached project would grow — poisoning every later cache hit.
func TestCachedProjectImmutableAcrossSessions(t *testing.T) {
	project, err := parse.Project(mutatorSrc)
	if err != nil {
		t.Fatal(err)
	}
	orig, isList := project.Globals["g"].(*value.List)
	if !isList || orig.Len() != 3 {
		t.Fatalf("global g = %v, want a 3-item list", project.Globals["g"])
	}

	mgr := runtime.NewManager(runtime.Config{MaxConcurrent: 16, MaxQueue: 16})
	const sessions = 16
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := mgr.Run(context.Background(), project, runtime.Limits{})
			if err != nil {
				t.Error(err)
				return
			}
			res, done := s.Result()
			if !done || res.Status != runtime.StatusOK {
				t.Errorf("session = %+v, want done", res)
				return
			}
			// Each session saw its own 5-item copy...
			if len(res.Trace) == 0 {
				t.Error("session produced no trace")
			}
		}()
	}
	wg.Wait()

	// ...and the shared AST never grew.
	if got := orig.Len(); got != 3 {
		t.Fatalf("cached project's global list grew to %d items; sessions wrote through the shared AST", got)
	}
}

// columnarSrc declares a global list literal long enough (32 numbers) that
// the parser builds it with a columnar backing in the shared AST. Each
// session appends text to its copy — the mutation that upgrades a columnar
// list to boxed — and reads an item, which materializes the shared list's
// memoized boxed view concurrently with the other 15 sessions.
const columnarSrc = `
	(project "columnar-mutator"
	  (global g (list 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
	                  17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32))
	  (sprite "S"
	    (when green-flag (do
	      (add "extra" g)
	      (say (join (length g) " " (item 1 g)))))))`

// TestCachedColumnarListImmutableAcrossSessions is the PR 5 shared-AST
// guard re-run against a column-backed literal: 16 sessions each trigger
// the column->boxed upgrade on their clone while reading the shared list.
// The cached list must stay columnar, unchanged, and race-free (-race).
func TestCachedColumnarListImmutableAcrossSessions(t *testing.T) {
	project, err := parse.Project(columnarSrc)
	if err != nil {
		t.Fatal(err)
	}
	orig, isList := project.Globals["g"].(*value.List)
	if !isList || orig.Len() != 32 {
		t.Fatalf("global g = %v, want a 32-item list", project.Globals["g"])
	}
	if !orig.Columnar() {
		t.Fatal("32-number literal did not parse to a columnar list")
	}

	mgr := runtime.NewManager(runtime.Config{MaxConcurrent: 16, MaxQueue: 16})
	const sessions = 16
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := mgr.Run(context.Background(), project, runtime.Limits{})
			if err != nil {
				t.Error(err)
				return
			}
			res, done := s.Result()
			if !done || res.Status != runtime.StatusOK {
				t.Errorf("session = %+v, want done", res)
				return
			}
			// Reads of the shared literal race only on the atomic view.
			_ = orig.Items()
			if got := orig.MustItem(32).String(); got != "32" {
				t.Errorf("shared item 32 = %s", got)
			}
		}()
	}
	wg.Wait()

	if got := orig.Len(); got != 32 {
		t.Fatalf("cached columnar list grew to %d items", got)
	}
	if !orig.Columnar() {
		t.Fatal("cached list lost its columnar backing; a session upgraded the shared AST copy")
	}
}

// planSrc moves, clones and writes sprite and global variables: every
// kind of state a machine builds from its plan.
const planSrc = `
	(project "plan-mutator"
	  (global g (list 1 2 3))
	  (sprite "S"
	    (local n 0)
	    (when green-flag (do
	      (repeat 3 (do
	        (forward 10)
	        (turn 45)
	        (change n 1)
	        (add $n g)
	        (clone "myself")))
	      (goto (* $n 7) -2)
	      (say (join $n " " (length g)))))
	    (when clone-start (do
	      (change n 100)
	      (forward 5))))
	  (sprite "T"
	    (local k "t")
	    (when green-flag (do (set k (join $k "!")) (say $k)))))`

// TestPlanIsolatesSessions builds every session of one cached entry from
// one shared run plan, 16 at a time, and each moves, clones and writes
// its sprite and global variables. Every session must end as a session
// run alone does, and the plan must be what a fresh one for the project
// is: no session wrote through the plan's actors, scopes or values (and
// -race sees no two sessions touch one of them).
func TestPlanIsolatesSessions(t *testing.T) {
	project, err := parse.Project(planSrc)
	if err != nil {
		t.Fatal(err)
	}
	plan := interp.NewPlan(project)
	run := func(mgr *runtime.Manager) runtime.Result {
		s, err := mgr.RunTraced(context.Background(), plan, runtime.Limits{}, "")
		if err != nil {
			t.Error(err)
			return runtime.Result{}
		}
		res, _ := s.Result()
		if res.Status != runtime.StatusOK {
			t.Errorf("session = %+v, want ok", res)
		}
		return res
	}
	alone := run(runtime.NewManager(runtime.Config{}))
	// The clones share S's sprite frame, so each adds 100 to n.
	if want := []string{"S#3@(13.54,-3.54)", "S#4@(17.07,-12.07)", "S#5@(13.54,-20.61)", `S@(1421,-2) saying "203 6"`, `T@(0,0) saying "t!"`}; !slices.Equal(alone.Stage, want) {
		t.Fatalf("stage alone = %q, want %q", alone.Stage, want)
	}

	mgr := runtime.NewManager(runtime.Config{MaxConcurrent: 16, MaxQueue: 16})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := run(mgr)
			if !slices.Equal(res.Stage, alone.Stage) || !slices.Equal(res.Trace, alone.Trace) {
				t.Errorf("a session sharing the plan ended as\n%q\n%q\nwant\n%q\n%q", res.Stage, res.Trace, alone.Stage, alone.Trace)
			}
		}()
	}
	wg.Wait()

	if !reflect.DeepEqual(plan, interp.NewPlan(project)) {
		t.Error("sessions wrote through the shared run plan")
	}
	if g := project.Globals["g"].(*value.List); g.Len() != 3 {
		t.Errorf("the cached global list grew to %d items", g.Len())
	}

	// Two machines from the plan, written to directly and in turn:
	// neither sees the other's declarations or assignments, though their
	// frames start from the plan's name slices.
	a, b := plan.NewMachine(nil), plan.NewMachine(nil)
	sp := project.Sprites[0]
	for i := 0; i < 10; i++ {
		a.GlobalFrame().Declare(fmt.Sprint("extra", i), value.Num(float64(i)))
		b.GlobalFrame().Declare(fmt.Sprint("other", i), value.Num(float64(i)))
		a.SpriteFrame(sp).Declare(fmt.Sprint("mine", i), value.Text("a"))
		b.SpriteFrame(sp).Declare(fmt.Sprint("theirs", i), value.Text("b"))
	}
	if err := a.SpriteFrame(sp).Set("n", value.Num(41)); err != nil {
		t.Fatal(err)
	}
	a.Stage.Actor("S").GotoXY(9, 9)
	for _, c := range []struct {
		m          *interp.Machine
		own, other string
	}{{a, "extra0", "other0"}, {b, "other0", "extra0"}, {a, "mine0", "theirs0"}, {b, "theirs0", "mine0"}} {
		f := c.m.GlobalFrame()
		if strings.HasPrefix(c.own, "mine") || strings.HasPrefix(c.own, "theirs") {
			f = c.m.SpriteFrame(sp)
		}
		if _, err := f.Get(c.own); err != nil {
			t.Errorf("%s, declared on its own machine, is gone: %v", c.own, err)
		}
		if _, err := f.Get(c.other); err == nil {
			t.Errorf("%s, declared on the other machine, is visible", c.other)
		}
	}
	if n, _ := b.SpriteFrame(sp).Get("n"); n.String() != "0" {
		t.Errorf("n = %s on the other machine, want 0", n)
	}
	if act := b.Stage.Actor("S"); act.X != 0 || act.Y != 0 {
		t.Errorf("the other machine's actor moved to (%g, %g)", act.X, act.Y)
	}
	if !reflect.DeepEqual(plan, interp.NewPlan(project)) {
		t.Error("a machine's frames wrote through the shared run plan")
	}
}
