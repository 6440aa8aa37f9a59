package stage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/vclock"
)

func TestActorMotion(t *testing.T) {
	s := New(nil)
	a := s.AddActor("Dragon", 0, 0)
	if a.Heading != 90 {
		t.Fatalf("default heading = %g, want 90 (facing right)", a.Heading)
	}
	a.MoveForward(10)
	if math.Abs(a.X-10) > 1e-9 || math.Abs(a.Y) > 1e-9 {
		t.Errorf("after forward 10: (%g,%g)", a.X, a.Y)
	}
	a.Turn(-90) // face up
	a.MoveForward(5)
	if math.Abs(a.X-10) > 1e-9 || math.Abs(a.Y-5) > 1e-9 {
		t.Errorf("after turn+forward: (%g,%g)", a.X, a.Y)
	}
	if a.Heading != 0 {
		t.Errorf("heading = %g, want 0", a.Heading)
	}
	a.Turn(-30)
	if a.Heading != 330 {
		t.Errorf("heading wraps to %g, want 330", a.Heading)
	}
	a.GotoXY(-3, 4)
	if a.X != -3 || a.Y != 4 {
		t.Error("gotoXY failed")
	}
}

func TestCloning(t *testing.T) {
	s := New(nil)
	p := s.AddActor("Pitcher", 1, 2)
	p.Heading = 45
	c := s.Clone(p)
	if !c.IsClone() || c.Parent != p {
		t.Fatal("clone parentage")
	}
	if c.X != 1 || c.Y != 2 || c.Heading != 45 {
		t.Error("clone should copy parent state")
	}
	if c.Label() == p.Label() {
		t.Error("clone label must be distinguishable")
	}
	if s.CloneCount("Pitcher") != 1 {
		t.Error("clone count")
	}
	s.Remove(c)
	if s.CloneCount("Pitcher") != 0 {
		t.Error("clone count after removal")
	}
	if len(s.Actors()) != 1 {
		t.Error("actor roster after removal")
	}
	s.Remove(c) // removing twice is harmless
}

func TestSayAndTrace(t *testing.T) {
	c := vclock.New()
	s := New(c)
	a := s.AddActor("Cup", 0, 0)
	c.Tick()
	a.Say("full!")
	if a.Saying != "full!" {
		t.Error("saying not set")
	}
	lines := s.TraceLines()
	if len(lines) != 1 || !strings.Contains(lines[0], `[t=1] Cup says "full!"`) {
		t.Errorf("trace = %v", lines)
	}
	a.Say("") // clearing the balloon is not traced
	if len(s.TraceLines()) != 1 {
		t.Error("clearing balloon should not trace")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	s := New(nil)
	b := s.AddActor("B", 1, 1)
	s.AddActor("A", 0, 0)
	b.Say("hi")
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0] != "A@(0,0)" || snap[1] != `B@(1,1) saying "hi"` {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestActorLookup(t *testing.T) {
	s := New(nil)
	a := s.AddActor("X", 0, 0)
	if s.Actor("X") != a || s.Actor("Y") != nil {
		t.Error("lookup")
	}
}

func TestRender(t *testing.T) {
	s := New(nil)
	s.AddActor("Pitcher", -240, 180) // top-left corner
	cup := s.AddActor("Cup1", 240, -180)
	cup.Say("full!")
	hidden := s.AddActor("Ghost", 0, 0)
	hidden.Visible = false
	out := s.Render(20, 6)
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "+----") {
		t.Errorf("missing border: %q", lines[0])
	}
	if !strings.Contains(lines[1], "P") {
		t.Errorf("Pitcher missing from top row: %q", lines[1])
	}
	if !strings.Contains(lines[6], "C") {
		t.Errorf("Cup missing from bottom row: %q", lines[6])
	}
	if strings.Contains(out, "G") {
		t.Error("hidden actor rendered")
	}
	if !strings.Contains(out, `Cup1: "full!"`) {
		t.Errorf("balloon missing:\n%s", out)
	}
	// Clamped minimum size must not panic.
	if s.Render(1, 1) == "" {
		t.Error("tiny render empty")
	}
}

// coords are the coordinates the renderer tables below run over: the
// ones %g writes with an exponent, the specials, and ones that round to
// -0 at two decimals.
var coords = []float64{
	0, 1, -1, 0.5, 123.456, -98.765, 0.005, -0.005, 0.004, -0.004, -0.001,
	1e20, 1e21, -1e21, 1e-7, -1e-7, 123456789, 0.1 + 0.2, 1.0 / 3,
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// TestSnapshotMatchesFmt holds the snapshot renderer to fmt's
// "%s@(%g,%g)" plus " saying %q" for every coordinate, clone labels
// included, except that a coordinate which rounds to -0 reads 0.
func TestSnapshotMatchesFmt(t *testing.T) {
	round2 := func(f float64) float64 { return math.Round(f*100) / 100 }
	want := func(a *Actor) string {
		x, y := round2(a.X), round2(a.Y)
		line := fmt.Sprintf("%s@(%g,%g)", a.Label(), x, y)
		line = strings.ReplaceAll(strings.ReplaceAll(line, "(-0,", "(0,"), ",-0)", ",0)")
		if a.Saying != "" {
			line += fmt.Sprintf(" saying %q", a.Saying)
		}
		return line
	}
	sayings := []string{"", "hi", `say "quoted" \ back`, "tab\tnew\nline", "ünï €", "\xff\xfe bad", " \x00\x7f"}
	for i, x := range coords {
		for j, y := range coords {
			s := New(nil)
			orig := s.AddActor("Sprite", x, y)
			orig.Say(sayings[(i+j)%len(sayings)])
			clone := s.Clone(orig)
			clone.X, clone.Y = y, x
			clone.Say(sayings[(i*j)%len(sayings)])
			var wantLines []string
			for _, a := range s.Actors() {
				wantLines = append(wantLines, want(a))
			}
			sort.Strings(wantLines)
			if got := s.Snapshot(); !slices.Equal(got, wantLines) {
				t.Fatalf("x=%g y=%g: snapshot\n%q\nwant\n%q", x, y, got, wantLines)
			}
		}
	}
}

// TestSnapshotNegativeZero pins the -0 fix: an actor just left of the
// origin rounds to 0 and prints as 0, as value.Number prints it.
func TestSnapshotNegativeZero(t *testing.T) {
	s := New(nil)
	s.AddActor("S", -0.001, 0.001)
	s.AddActor("T", math.Copysign(0, -1), -0.004)
	if got, want := s.Snapshot(), []string{"S@(0,0)", "T@(0,0)"}; !slices.Equal(got, want) {
		t.Errorf("snapshot = %q, want %q", got, want)
	}
}

// TestTraceLinesMatchFmt holds each trace line to the fmt rendering it
// replaced: "[t=%d] " and the action's format.
func TestTraceLinesMatchFmt(t *testing.T) {
	c := vclock.New()
	s := New(c)
	a := s.AddActor("Dragon", 0, 0)
	var want []string
	line := func(format string, args ...any) {
		want = append(want, fmt.Sprintf("[t=%d] ", c.Now())+fmt.Sprintf(format, args...))
	}
	for _, v := range coords {
		c.Tick()
		a.MoveForward(v)
		line("%s moves %g", a.Label(), v)
		a.Heading = 90
		a.Turn(v)
		line("%s turns %g", a.Label(), v)
		a.GotoXY(v, -v)
		line("%s goes to (%g, %g)", a.Label(), v, -v)
	}
	for _, text := range []string{"hi", `"q"`, "\xff", " ", "€"} {
		a.Say(text)
		line("%s says %q", a.Label(), text)
	}
	cl := s.Clone(a)
	line("%s is cloned as %s", a.Label(), cl.Label())
	cl2 := s.Clone(cl)
	line("%s is cloned as %s", cl.Label(), cl2.Label())
	cl2.Say("x")
	line("%s says %q", cl2.Label(), "x")
	s.Remove(cl2)
	line("%s is removed", cl2.Label())
	if got := s.TraceLines(); !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
			}
		}
		t.Fatalf("%d lines, want %d", len(got), len(want))
	}
}

// TestAddActorsMatchesAddActor places the same originals both ways.
func TestAddActorsMatchesAddActor(t *testing.T) {
	one, slab := New(nil), New(nil)
	placed := []Actor{Original("A", 1, 2), Original("B", -3, 4)}
	for _, a := range placed {
		one.AddActor(a.Name, a.X, a.Y)
	}
	slab.AddActors(placed)
	for i, a := range one.Actors() {
		b := slab.Actors()[i]
		if b != &placed[i] || a.Name != b.Name || a.ID != b.ID || a.X != b.X || a.Y != b.Y ||
			a.Heading != b.Heading || a.Visible != b.Visible || b.stage != slab {
			t.Errorf("actor %d: %+v, want %+v", i, *b, *a)
		}
	}
}
