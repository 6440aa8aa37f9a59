package progcache

import (
	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
)

// ProjectEntry is Tier A's cached elaboration outcome for one request
// body: either a parse failure, or the parsed project with its run plan
// and its lint findings split by severity. Entries are shared across
// requests and sessions, so every field is immutable by contract —
// handlers must not append to the finding slices in place, and sessions
// must treat the Project and the Plan as read-only (the interpreter
// clones mutable state out of them; see interp.Plan).
type ProjectEntry struct {
	// Project is the parsed AST; nil when parsing failed.
	Project *blocks.Project
	// Plan is the Project's run plan, from which each session builds its
	// machine; nil when parsing failed.
	Plan *interp.Plan
	// ParseErr carries the parse failure; empty on success.
	ParseErr string
	// Fatal are error-severity lint findings (the request is rejected);
	// Warnings are echoed with a successful run.
	Fatal    []string
	Warnings []string
}

// An entry is priced at the heap it holds: a fixed overhead, a charge
// per block, input slot, literal or variable leaf, script and sprite
// (sizes measured on this repository's projects, see
// TestProjectCostTracksRetainedHeap), the bytes of every string its AST
// holds, its run plan (as the plan estimates itself), and its parse
// error or finding strings. Strings are priced at
// their length because a body can make any of them as long as itself: a
// rejected body's error quotes the atom it stopped at, and an XML
// literal or selector is as long as its attribute.
const (
	projectEntryOverhead = 512
	blockCost            = 40  // a blocks.Block
	inputCost            = 16  // one slot of a block's Inputs
	leafCost             = 16  // a literal or variable leaf: a boxed text, or an interned small number
	scriptCost           = 192 // a blocks.Script with its hat and its block list
	spriteCost           = 256 // a blocks.Sprite with its two maps
)

func (e *ProjectEntry) cost() int64 {
	n := int64(projectEntryOverhead) + int64(len(e.ParseErr))
	if e.Project != nil {
		var z astSize
		z.project(e.Project)
		n += int64(z.text) + int64(z.blocks)*blockCost + int64(z.inputs)*inputCost +
			int64(z.leaves)*leafCost + int64(z.scripts)*scriptCost + int64(z.sprites)*spriteCost
	}
	if e.Plan != nil {
		n += e.Plan.Bytes()
	}
	for _, f := range e.Fatal {
		n += int64(len(f))
	}
	for _, f := range e.Warnings {
		n += int64(len(f))
	}
	return n
}

// astSize counts the parts of a project that cost its entry, and the
// bytes of the strings it holds (text).
type astSize struct {
	blocks, inputs, leaves, scripts, sprites, text int
}

func (z *astSize) project(p *blocks.Project) {
	z.text += len(p.Name)
	z.values(p.Globals)
	z.customs(p.Customs)
	for _, sp := range p.Sprites {
		z.sprites++
		z.text += len(sp.Name)
		z.values(sp.Variables)
		z.customs(sp.Customs)
		for _, hs := range sp.Scripts {
			z.text += len(hs.Arg)
			z.script(hs.Script)
		}
	}
}

func (z *astSize) customs(m map[string]*blocks.CustomBlock) {
	for _, cb := range m {
		z.text += len(cb.Name)
		z.names(cb.Params)
		z.script(cb.Body)
	}
}

func (z *astSize) values(m map[string]value.Value) {
	for name, v := range m {
		z.text += len(name)
		z.value(v)
	}
}

func (z *astSize) names(names []string) {
	for _, name := range names {
		z.text += len(name)
	}
}

// value counts a literal, and the items of a list literal: a leaf each,
// or a float or a string each in a columnar list.
func (z *astSize) value(v value.Value) {
	z.leaves++
	switch x := v.(type) {
	case value.Text:
		z.text += len(x)
	case *value.List:
		if fs, ok := x.FloatsView(); ok {
			z.text += 8 * len(fs)
		} else if ss, ok := x.StringsView(); ok {
			z.text += 16 * len(ss)
			z.names(ss)
		} else {
			for _, it := range x.Items() {
				z.value(it)
			}
		}
	}
}

func (z *astSize) script(s *blocks.Script) {
	if s == nil {
		return
	}
	z.scripts++
	for _, b := range s.Blocks {
		z.node(b)
	}
}

func (z *astSize) node(n blocks.Node) {
	switch x := n.(type) {
	case *blocks.Block:
		if x == nil {
			return
		}
		z.blocks++
		z.text += len(x.Op)
		z.inputs += len(x.Inputs)
		for _, in := range x.Inputs {
			z.node(in)
		}
	case blocks.Literal:
		z.value(x.Val)
	case blocks.VarGet:
		z.leaves++
		z.text += len(x.Name)
	case blocks.ScriptNode:
		z.script(x.Script)
	case *blocks.Script:
		z.script(x)
	case blocks.RingNode:
		z.names(x.Params)
		z.node(x.Body)
	}
}

// Projects is the Tier A cache. A nil *Projects is a valid pass-through:
// Get just runs the loader.
type Projects struct {
	c *cache
}

// DefaultProjectBudget is the Tier A byte budget the server uses when
// its config leaves the cache size zero: with the default 1 MiB body cap
// it holds at least a few dozen distinct projects, and a classroom's
// worth of the small ones.
const DefaultProjectBudget int64 = 32 << 20

// NewProjects builds a Tier A cache with the given byte budget
// (<= 0 disables caching: every Get runs the loader).
func NewProjects(budget int64) *Projects {
	c := newCache("project", budget)
	if c == nil {
		return nil
	}
	return &Projects{c: c}
}

// Get returns the elaboration outcome for a decoded source (src, format),
// running load once per distinct source — concurrent callers for the same
// missing source share one load.
func (p *Projects) Get(src, format string, load func() *ProjectEntry) (*ProjectEntry, Outcome) {
	if p == nil || p.c == nil {
		return load(), OutcomeMiss
	}
	return p.Lookup(hashBody(src, format), load)
}

// Lookup returns the elaboration outcome cached under key, a request's
// Envelope.Key, running load once per distinct key.
func (p *Projects) Lookup(key string, load func() *ProjectEntry) (*ProjectEntry, Outcome) {
	if p == nil || p.c == nil {
		return load(), OutcomeMiss
	}
	v, out := p.c.get(key, func() (any, int64) {
		ent := load()
		return ent, ent.cost()
	})
	return v.(*ProjectEntry), out
}

// Stats snapshots the tier's counters (zero value when disabled).
func (p *Projects) Stats() Stats {
	if p == nil || p.c == nil {
		return Stats{}
	}
	return p.c.snapshot()
}

// Reset empties the cache (test/bench hook); no-op when disabled.
func (p *Projects) Reset() {
	if p != nil && p.c != nil {
		p.c.reset()
	}
}
