package progcache

import (
	"repro/internal/blocks"
)

// ProjectEntry is Tier A's cached elaboration outcome for one request
// body: either a parse failure, or the parsed project with its lint
// findings split by severity. Entries are shared across requests and
// sessions, so every field is immutable by contract — handlers must not
// append to the finding slices in place, and sessions must treat the
// Project as read-only (the interpreter clones mutable state out of it;
// see interp.NewMachine).
type ProjectEntry struct {
	// Project is the parsed AST; nil when parsing failed.
	Project *blocks.Project
	// ParseErr carries the parse failure; empty on success.
	ParseErr string
	// Fatal are error-severity lint findings (the request is rejected);
	// Warnings are echoed with a successful run.
	Fatal    []string
	Warnings []string
}

// projectEntryOverhead is the per-entry byte-budget surcharge covering
// the AST and bookkeeping beyond the raw finding strings. The parsed
// tree generally outweighs its source text, so the source is charged
// at a multiple.
const (
	projectEntryOverhead = 512
	projectASTFactor     = 3
)

func (e *ProjectEntry) cost(srcLen int) int64 {
	n := int64(projectEntryOverhead) + int64(srcLen)*projectASTFactor
	for _, f := range e.Fatal {
		n += int64(len(f))
	}
	for _, f := range e.Warnings {
		n += int64(len(f))
	}
	return n
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
	return p.Lookup(hashBody(src, format), func() (*ProjectEntry, int) { return load(), len(src) })
}

// Lookup returns the elaboration outcome cached under key, a request's
// Envelope.Key, running load once per distinct key. load returns the entry
// and the length of the decoded source it elaborated, which prices the
// entry.
func (p *Projects) Lookup(key string, load func() (*ProjectEntry, int)) (*ProjectEntry, Outcome) {
	if p == nil || p.c == nil {
		ent, _ := load()
		return ent, OutcomeMiss
	}
	v, out := p.c.get(key, func() (any, int64) {
		ent, n := load()
		return ent, ent.cost(n)
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
