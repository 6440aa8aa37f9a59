package interp

import (
	"slices"
	"unsafe"

	"repro/internal/blocks"
	"repro/internal/stage"
	"repro/internal/value"
	"repro/internal/vclock"
)

// Plan is what building a machine for a project takes, worked out once:
// the initial values of every variable scope and the green-flag scripts;
// each sprite's actor is placed from the sprite itself. A plan is
// immutable once built, so one plan can build any number of machines,
// concurrently; Tier A keeps one per cached project (internal/progcache),
// and a cached request builds its machine without walking the project.
type Plan struct {
	project *blocks.Project
	// scopes are the global scope, then one per sprite that declares
	// variables, in project order; scope maps each such sprite to its
	// scope. A sprite without variables runs its scripts in the global
	// scope, which an empty sprite scope would only pass lookups on to.
	scopes    []scopePlan
	scope     map[*blocks.Sprite]int
	greenFlag []hatScript
	// inline counts the values of the scopes held inline.
	inline int
}

// scopePlan is one scope's variables. The names slice is shared by every
// machine's frame, capped at its length so that a declaration appends to
// a copy; the values are cloned into each machine.
type scopePlan struct {
	names []string
	vals  []value.Value
}

// hatScript is a green-flag script and its sprite.
type hatScript struct {
	sprite *blocks.Sprite
	script *blocks.Script
}

// NewPlan works out the plan for a project. The project must not change
// while machines are built from the plan.
func NewPlan(project *blocks.Project) *Plan {
	pl := &Plan{project: project}
	pl.addScope(project.Globals)
	for _, sp := range project.Sprites {
		if len(sp.Variables) > 0 {
			if pl.scope == nil {
				pl.scope = map[*blocks.Sprite]int{}
			}
			pl.scope[sp] = len(pl.scopes)
			pl.addScope(sp.Variables)
		}
		for _, hs := range sp.Scripts {
			if hs.Hat == blocks.HatGreenFlag {
				pl.greenFlag = append(pl.greenFlag, hatScript{sp, hs.Script})
			}
		}
	}
	return pl
}

func (pl *Plan) addScope(vars map[string]value.Value) {
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	slices.Sort(names)
	sc := scopePlan{names: names, vals: make([]value.Value, len(names))}
	for i, name := range names {
		sc.vals[i] = vars[name]
	}
	if len(names) <= frameSmallMax {
		pl.inline += len(names)
	}
	pl.scopes = append(pl.scopes, sc)
}

// Bytes estimates the heap the plan holds beyond the project it was
// built from: its scopes and their index, and its green-flag list.
func (pl *Plan) Bytes() int64 {
	const (
		word     = int64(unsafe.Sizeof(uintptr(0)))
		mapEntry = 4 * word // a pointer key, an int, and the map's slack
	)
	n := int64(unsafe.Sizeof(*pl)) +
		int64(cap(pl.scopes))*int64(unsafe.Sizeof(scopePlan{})) +
		int64(len(pl.scope))*mapEntry +
		int64(cap(pl.greenFlag))*int64(unsafe.Sizeof(hatScript{}))
	for _, sc := range pl.scopes {
		n += int64(len(sc.names)) * int64(unsafe.Sizeof("")+unsafe.Sizeof(value.Value(nil)))
	}
	return n
}

// NewMachine builds a machine for the plan's project over a fresh stage
// driven by the given clock (nil for a plain clock).
func (pl *Plan) NewMachine(clock *vclock.Clock) *Machine {
	m := &Machine{
		Project:  pl.project,
		Stage:    stage.New(clock),
		SliceOps: DefaultSliceOps,
		plan:     pl,
	}
	m.build()
	return m
}

// build gives the machine its scopes from the plan and an actor per
// sprite, in slabs: one array of frames, one of inline values, one of
// actors.
// Initial values are deep-cloned out of the plan: the project may be a
// shared, content-address-cached AST serving many concurrent machines
// (internal/progcache), so a session mutating a list global must mutate
// its own copy. Scalars share (CloneValue returns them as-is); only
// containers pay a copy, once per machine.
func (m *Machine) build() {
	pl := m.plan
	m.frames = make([]Frame, len(pl.scopes))
	vals := make([]value.Value, pl.inline)
	for i, sc := range pl.scopes {
		f := &m.frames[i]
		if i > 0 {
			f.parent = &m.frames[0]
		}
		if len(sc.names) > frameSmallMax {
			f.vars = make(map[string]value.Value, len(sc.names))
			for j, name := range sc.names {
				f.vars[name] = value.CloneValue(sc.vals[j])
			}
			continue
		}
		if len(sc.names) == 0 {
			continue
		}
		n := len(sc.names)
		f.names, f.vals, vals = sc.names, vals[:n:n], vals[n:]
		for j, v := range sc.vals {
			f.vals[j] = value.CloneValue(v)
		}
	}
	m.globalFrame = &m.frames[0]
	m.actors = make([]stage.Actor, len(pl.project.Sprites))
	for i, sp := range pl.project.Sprites {
		m.actors[i] = stage.Original(sp.Name, sp.X, sp.Y)
	}
	m.Stage.AddActors(m.actors)
	m.cloneSprite = nil
}
