// Package stage models the Snap! stage at run time: the white area in the
// upper right of Figure 2 where sprites appear, exhibit their behavior, and
// display their output. There are no pixels here — a sprite's observable
// state is its position, heading, visibility, and what it is saying — but
// that state is exactly what the paper's demos (the dragon of Figure 3, the
// concession stand of Figures 7–10) read back to show parallelism working.
package stage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/value"
	"repro/internal/vclock"
)

// Actor is a live sprite (or clone of one) on the stage.
type Actor struct {
	// Name is the sprite name; clones share their parent's name and are
	// distinguished by ID.
	Name string
	// ID is unique per actor across the stage's lifetime.
	ID int
	// Parent is the actor this one was cloned from; nil for originals.
	Parent *Actor

	X, Y    float64
	Heading float64 // degrees, 90 = right, Snap! convention (0 = up)
	Visible bool
	Saying  string

	stage *Stage
}

// Original is the actor AddActor mints for a sprite at (x, y): facing
// right, visible, silent. Its ID and stage are set when it is placed.
func Original(name string, x, y float64) Actor {
	return Actor{Name: name, X: x, Y: y, Heading: 90, Visible: true}
}

// IsClone reports whether the actor is a temporary clone.
func (a *Actor) IsClone() bool { return a.Parent != nil }

// Rehome returns the actor to the state AddActor would have minted it in
// at (x, y) — pose, visibility, speech — keeping its identity. Scratch
// runners reuse one actor per machine instead of growing the actor list
// on every run.
func (a *Actor) Rehome(x, y float64) {
	a.X, a.Y = x, y
	a.Heading = 90
	a.Visible = true
	a.Saying = ""
}

// MoveForward moves n steps along the current heading.
func (a *Actor) MoveForward(n float64) {
	rad := (90 - a.Heading) * math.Pi / 180
	a.X += n * math.Cos(rad)
	a.Y += n * math.Sin(rad)
	a.stage.trace(func(b []byte) []byte { return appendG(append(a.appendLabel(b), " moves "...), n) })
}

// Turn turns clockwise by deg degrees.
func (a *Actor) Turn(deg float64) {
	a.Heading = math.Mod(a.Heading+deg, 360)
	if a.Heading < 0 {
		a.Heading += 360
	}
	a.stage.trace(func(b []byte) []byte { return appendG(append(a.appendLabel(b), " turns "...), deg) })
}

// GotoXY teleports the actor.
func (a *Actor) GotoXY(x, y float64) {
	a.X, a.Y = x, y
	a.stage.trace(func(b []byte) []byte {
		b = appendG(append(a.appendLabel(b), " goes to ("...), x)
		return append(appendG(append(b, ", "...), y), ')')
	})
}

// Say sets the speech balloon, the principal output channel of a Snap!
// program. Saying the empty string clears the balloon.
func (a *Actor) Say(text string) {
	a.Saying = text
	if text != "" {
		a.stage.trace(func(b []byte) []byte { return strconv.AppendQuote(append(a.appendLabel(b), " says "...), text) })
	}
}

// Label renders "Name" for originals and "Name#ID" for clones.
func (a *Actor) Label() string {
	if a.IsClone() {
		return string(a.appendLabel(nil))
	}
	return a.Name
}

func (a *Actor) appendLabel(b []byte) []byte {
	b = append(b, a.Name...)
	if a.IsClone() {
		b = strconv.AppendInt(append(b, '#'), int64(a.ID), 10)
	}
	return b
}

// appendG appends f as fmt's %g writes it.
func appendG(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// Stage is the shared world all actors live in.
type Stage struct {
	mu     sync.Mutex
	actors []*Actor
	nextID int

	Clock *vclock.Clock
	Timer *vclock.Timer

	// Trace accumulates one line per observable action, in order. Tests
	// and the examples assert against it; it is the textual equivalent
	// of watching the stage.
	Trace []string

	// MaxTrace bounds the trace when positive: once the trace holds
	// MaxTrace lines, further lines are counted but dropped. A hosted
	// session's output log must not grow with its (budgeted but large)
	// step count; the prefix is what a beginner looks at anyway.
	MaxTrace int

	// Vars are stage-global watchers (the "timer" style readouts).
	Vars map[string]value.Value

	dropped int
	// line is the scratch buffer trace lines and snapshots are built in.
	line []byte
}

// New creates an empty stage over the given clock.
func New(clock *vclock.Clock) *Stage {
	if clock == nil {
		clock = vclock.New()
	}
	// Vars stays nil until a watcher is set: reads on a nil map are legal,
	// and most machines (every eval-style session) never set one.
	return &Stage{
		Clock: clock,
		Timer: vclock.NewTimer(clock),
	}
}

// Reset empties the stage — actors, trace, watchers, timer, and clock —
// restoring the state New returns while keeping allocated capacity, so
// eval-style servers can recycle a stage per request. Trace is dropped
// rather than truncated: callers may still hold the old slice.
func (s *Stage) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.actors {
		s.actors[i] = nil
	}
	s.actors = s.actors[:0]
	s.nextID = 0
	s.Trace = nil
	s.MaxTrace = 0
	s.Vars = nil
	s.dropped = 0
	s.Clock.Reset()
	s.Timer.Reset()
}

// AddActor places a new original sprite on the stage.
func (s *Stage) AddActor(name string, x, y float64) *Actor {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := Original(name, x, y)
	s.place(&a)
	return &a
}

// AddActors places each actor of a slab of originals (see Original) in
// order, as AddActor would one by one: the slab's elements become the
// stage's actors.
func (s *Stage) AddActors(slab []Actor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.actors = slices.Grow(s.actors, len(slab))
	for i := range slab {
		s.place(&slab[i])
	}
}

// place gives a new actor its ID and puts it on the stage. Under s.mu.
func (s *Stage) place(a *Actor) {
	s.nextID++
	a.ID, a.stage = s.nextID, s
	s.actors = append(s.actors, a)
}

// Clone spawns a clone of the given actor, copying its visible state — the
// mechanism parallelForEach uses "in a novel way to visually demonstrate
// parallel behavior" (§3.3).
func (s *Stage) Clone(parent *Actor) *Actor {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	c := &Actor{
		Name: parent.Name, ID: s.nextID, Parent: parent,
		X: parent.X, Y: parent.Y, Heading: parent.Heading,
		Visible: parent.Visible, stage: s,
	}
	s.actors = append(s.actors, c)
	s.traceLocked(func(b []byte) []byte { return c.appendLabel(append(parent.appendLabel(b), " is cloned as "...)) })
	return c
}

// Remove deletes an actor (clone deletion; originals may be removed too).
func (s *Stage) Remove(a *Actor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, x := range s.actors {
		if x == a {
			s.actors = append(s.actors[:i], s.actors[i+1:]...)
			s.traceLocked(func(b []byte) []byte { return append(a.appendLabel(b), " is removed"...) })
			return
		}
	}
}

// Actors returns a snapshot of the live actors.
func (s *Stage) Actors() []*Actor {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Actor, len(s.actors))
	copy(out, s.actors)
	return out
}

// Actor returns the first live actor with the given name, or nil.
func (s *Stage) Actor(name string) *Actor {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.actors {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// CloneCount reports how many clones of the named sprite are live.
func (s *Stage) CloneCount(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, a := range s.actors {
		if a.Name == name && a.IsClone() {
			n++
		}
	}
	return n
}

// Snapshot renders the stage as sorted "label@(x,y) saying" lines, a
// deterministic text rendering of what Figure 9's screenshots show. The
// coordinates are rounded to two decimals and written as %g writes them,
// except that a coordinate which rounds to zero is 0, never -0, as Snap!
// and value.Number print it. All lines are rendered into one string.
func (s *Stage) Snapshot() []string {
	var ends [64]int // the lines' end offsets, on the stack for most stages
	at := ends[:0]
	s.mu.Lock()
	b := s.line[:0]
	for _, a := range s.actors {
		b = append(a.appendLabel(b), "@("...)
		b = append(appendCoord(append(appendCoord(b, a.X), ','), a.Y), ')')
		if a.Saying != "" {
			b = strconv.AppendQuote(append(b, " saying "...), a.Saying)
		}
		at = append(at, len(b))
	}
	all := string(b)
	s.line = b
	s.mu.Unlock()
	out := make([]string, len(at))
	start := 0
	for i, end := range at {
		out[i] = all[start:end]
		start = end
	}
	slices.Sort(out)
	return out
}

// appendCoord appends a coordinate rounded to two decimals.
func appendCoord(b []byte, f float64) []byte {
	r := math.Round(f*100) / 100
	if r == 0 {
		r = 0 // -0 prints as 0
	}
	return appendG(b, r)
}

// trace appends one line, "[t=N] " and what fill appends after it.
func (s *Stage) trace(fill func(b []byte) []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traceLocked(fill)
}

func (s *Stage) traceLocked(fill func(b []byte) []byte) {
	if s.MaxTrace > 0 && len(s.Trace) >= s.MaxTrace {
		s.dropped++
		return
	}
	b := strconv.AppendInt(append(s.line[:0], "[t="...), s.Clock.Now(), 10)
	s.line = fill(append(b, "] "...))
	s.Trace = append(s.Trace, string(s.line))
}

// TraceDropped reports how many trace lines the MaxTrace bound discarded.
func (s *Stage) TraceDropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// TraceLines returns a copy of the trace.
func (s *Stage) TraceLines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.Trace))
	copy(out, s.Trace)
	return out
}

// Render draws the stage as ASCII art: a cols×rows grid over Snap!'s
// standard stage coordinates (x ∈ [-240, 240], y ∈ [-180, 180]), each
// visible actor marked by the first rune of its name, speech balloons
// listed below — a terminal-sized stand-in for the white area of Figure 2.
func (s *Stage) Render(cols, rows int) string {
	if cols < 8 {
		cols = 8
	}
	if rows < 4 {
		rows = 4
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	grid := make([][]rune, rows)
	for r := range grid {
		grid[r] = make([]rune, cols)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	var balloons []string
	for _, a := range s.actors {
		if !a.Visible {
			continue
		}
		col := int((a.X + 240) / 480 * float64(cols-1))
		row := int((180 - a.Y) / 360 * float64(rows-1))
		if col < 0 {
			col = 0
		}
		if col >= cols {
			col = cols - 1
		}
		if row < 0 {
			row = 0
		}
		if row >= rows {
			row = rows - 1
		}
		mark := '?'
		for _, r := range a.Name {
			mark = r
			break
		}
		grid[row][col] = mark
		if a.Saying != "" {
			balloons = append(balloons, fmt.Sprintf("%s: %q", a.Label(), a.Saying))
		}
	}
	var b []byte
	border := make([]byte, cols+2)
	border[0], border[cols+1] = '+', '+'
	for i := 1; i <= cols; i++ {
		border[i] = '-'
	}
	b = append(b, border...)
	b = append(b, '\n')
	for _, row := range grid {
		b = append(b, '|')
		b = append(b, string(row)...)
		b = append(b, '|', '\n')
	}
	b = append(b, border...)
	b = append(b, '\n')
	sort.Strings(balloons)
	for _, line := range balloons {
		b = append(b, "  "+line+"\n"...)
	}
	return string(b)
}
