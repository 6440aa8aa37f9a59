// Package mapreduce implements the MapReduce engine behind the paper's
// mapReduce block (§3.4): a map phase over key/value pairs, a sort of the
// intermediate results by key ("as required by the semantics of
// MapReduce", footnote 6), grouping, and a reduce phase — with both map and
// reduce executing in parallel across workers. "Although conceptually
// simple, MapReduce implementations can be quite complex to set up and use.
// Fortunately, these details are hidden in the implementation."
package mapreduce

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/workers"
)

// KVP is a key/value pair, the record type flowing through every phase —
// the struct KVP of the paper's generated kvp.h (Listings 6–7).
type KVP struct {
	Key string
	Val value.Value
}

// String renders "key: value".
func (k KVP) String() string {
	if k.Val == nil {
		return k.Key + ":"
	}
	return k.Key + ": " + k.Val.String()
}

// Mapper maps one input item to one intermediate (key, value) pair — the
// paper's one-in-one-out contract ("the map function is executed for each
// item in the supplied list, mapping the item to a value") and the shape of
// the generated OpenMP `int map(KVP *in, KVP *out)`.
type Mapper func(item value.Value) (key string, val value.Value, err error)

// Reducer folds all values that share a key into one value. "Unlike the map
// function, the computation it performs may depend upon previous items."
type Reducer func(key string, vals *value.List) (value.Value, error)

// Config tunes a run.
type Config struct {
	// Workers is the parallelism of the map and reduce phases;
	// 0 means workers.DefaultWorkers(). 1 runs every phase on the calling
	// goroutine.
	Workers int
	// Label tags the run's trace span (see internal/obs); the mapReduce
	// block passes the owning session's trace ID through here.
	Label string
	// Columns are the caller's column kernels for the run's mapper and
	// reducer (see columnar.go); the zero value looks the stock registry
	// up instead.
	Columns Columns
	// Canceled, when set, is polled before every chunk claim: once it
	// reports true the phases stop claiming and the run fails with
	// workers.ErrCanceled. The mapReduce block wires its job's cancel
	// flag (workers.Job.Canceled) through here.
	Canceled func() bool
}

// Result is the output of a run: one reduced pair per distinct key, sorted
// by key — the "sorted list of unique words ... with the number of times
// the words appear" of Figure 12.
type Result []KVP

// List converts the result to a Snap! list of (key value) pairs. All the
// pair lists are carved out of one backing array (capped sub-slices, so a
// pair growing past its two cells reallocates privately instead of
// clobbering its neighbor).
func (r Result) List() *value.List {
	backing := make([]value.Value, 2*len(r))
	outer := make([]value.Value, len(r))
	for i, kv := range r {
		pair := backing[2*i : 2*i+2 : 2*i+2]
		pair[0], pair[1] = value.Text(kv.Key), kv.Val
		outer[i] = value.AdoptSlice(pair)
	}
	return value.AdoptSlice(outer)
}

// Strings renders each pair.
func (r Result) Strings() []string {
	out := make([]string, len(r))
	for i, kv := range r {
		out[i] = kv.String()
	}
	return out
}

// kernels is what one run executes: mapf maps input item i to its pair and
// reduce folds one key's values. The value column V is value.Value for a
// general Mapper/Reducer and float64 for column kernels (see
// columnar.go); either way the pipeline around them is the same.
type kernels[V any] struct {
	n      int
	mapf   func(i int) (string, V, error)
	reduce func(key string, vals []V) (value.Value, error)
}

// Run executes the full pipeline: parallel map, sort by key, group,
// parallel reduce. Items cross the worker boundary by structured clone in
// both phases, matching the Web-Worker discipline of §4. A column-backed
// input whose mapper and reducer have column kernels (the caller's, or
// registered stock ones) runs the same pipeline over flat arrays.
func Run(input *value.List, m Mapper, r Reducer, cfg Config) (Result, error) {
	if m == nil {
		m = Identity
	}
	if r == nil {
		r = IdentityReduce
	}
	w := cfg.Workers
	if w <= 0 {
		w = workers.DefaultWorkers()
	}
	if k, ok := planColumnRun(input, m, r, cfg.Columns); ok {
		return run(k, w, cfg)
	}
	return run(kernels[value.Value]{n: input.Len(), mapf: boxedMap(input, m), reduce: boxedReduce(r)}, w, cfg)
}

// boxedMap is the general map kernel: the mapper sees a private clone of
// item i, and the value it emits is cloned on the way out.
func boxedMap(input *value.List, m Mapper) func(i int) (string, value.Value, error) {
	items := input.Items()
	return func(i int) (string, value.Value, error) {
		k, v, err := m(value.CloneValue(items[i]))
		if err != nil {
			return "", nil, err
		}
		return k, value.CloneValue(v), nil
	}
}

// boxedReduce is the general reduce kernel. The group's values were cloned
// when they left the map phase and the shuffle hands each group a capped
// sub-slice of its own backing array, so the reducer gets a private list
// without another defensive clone.
func boxedReduce(r Reducer) func(key string, vals []value.Value) (value.Value, error) {
	return func(key string, vals []value.Value) (value.Value, error) {
		return r(key, value.AdoptSlice(vals))
	}
}

// run is the one pipeline: map, shuffle, reduce, with the phase telemetry
// recorded around them.
func run[V any](k kernels[V], w int, cfg Config) (Result, error) {
	// Phase telemetry: one atomic load up front; everything else only
	// runs (and only allocates) while the observability switch is on.
	tracing := obs.Enabled()
	var tStart, tMapDone, tShuffleDone time.Time
	if tracing {
		obs.MRRuns.Inc()
		tStart = time.Now()
	}
	p := newPipeline(k)
	defer p.release()
	if err := p.mapPhase(w, cfg.Canceled); err != nil {
		if tracing {
			recordSpan(cfg.Label, tStart, k.n, 0, w, err)
		}
		return nil, err
	}
	if tracing {
		tMapDone = time.Now()
		obs.MRPhaseSeconds.With("map").Observe(tMapDone.Sub(tStart).Seconds())
	}
	p.shuffle()
	if tracing {
		tShuffleDone = time.Now()
		obs.MRPhaseSeconds.With("shuffle").Observe(tShuffleDone.Sub(tMapDone).Seconds())
		if len(p.groups) > 0 {
			// Bucket skew: the largest group over the mean group size;
			// 1 is perfectly balanced.
			maxLen := 0
			for _, g := range p.groups {
				maxLen = max(maxLen, g.end-g.off)
			}
			obs.MRBucketSkew.Observe(float64(maxLen) * float64(len(p.groups)) / float64(k.n))
		}
	}
	err := p.reducePhase(w, cfg.Canceled)
	if tracing {
		obs.MRPhaseSeconds.With("reduce").Observe(time.Since(tShuffleDone).Seconds())
		recordSpan(cfg.Label, tStart, k.n, len(p.groups), w, err)
	}
	if err != nil {
		return nil, err
	}
	return p.out, nil
}

// recordSpan records a finished run's trace span: ok, error, or canceled
// (the owning job was canceled mid-run).
func recordSpan(label string, start time.Time, n, keys, w int, err error) {
	status := "ok"
	switch {
	case errors.Is(err, workers.ErrCanceled):
		status = "canceled"
	case err != nil:
		status = "error"
	}
	obs.RecordSpan(obs.Span{
		ID:    label,
		Kind:  "mapReduce",
		Start: start,
		Dur:   time.Since(start),
		Attrs: []obs.Attr{
			obs.AttrInt("items", int64(n)),
			obs.AttrInt("pairs", int64(n)),
			obs.AttrInt("keys", int64(keys)),
			obs.AttrInt("workers", int64(w)),
			{Key: "status", Val: status},
		},
	})
}

// MapOnly runs just the map phase, returning the unsorted intermediate
// pairs in item order. Package dist uses it to run the map phase locally
// on each simulated cluster node before shuffling by key.
func MapOnly(input *value.List, m Mapper, workers int) ([]KVP, error) {
	if m == nil {
		m = Identity
	}
	p := newPipeline(kernels[value.Value]{n: input.Len(), mapf: boxedMap(input, m)})
	defer p.release()
	if err := p.mapPhase(max(workers, 1), nil); err != nil {
		return nil, err
	}
	mid := make([]KVP, p.n)
	for i, k := range p.keys {
		mid[i] = KVP{Key: k, Val: p.vals[i]}
	}
	return mid, nil
}

// ReduceSorted shuffles intermediate pairs by key and runs the reduce
// phase — the second half of Run, exposed for distributed execution. mid
// is left untouched.
func ReduceSorted(mid []KVP, r Reducer, workers int) (Result, error) {
	if r == nil {
		r = IdentityReduce
	}
	p := newPipeline(kernels[value.Value]{n: len(mid), reduce: boxedReduce(r)})
	defer p.release()
	for i, kv := range mid {
		p.keys[i], p.vals[i] = kv.Key, kv.Val
	}
	p.shuffle()
	if err := p.reducePhase(max(workers, 1), nil); err != nil {
		return nil, err
	}
	return p.out, nil
}

// pipeline is one run's state. Its two parallel steps, mapStep and
// reduceStep, are views of the same struct.
type pipeline[V any] struct {
	kernels[V]
	*scratch
	vals    []V // item i's mapped value; its key is keys[i]
	backing []V
	out     Result
}

// scratch is a run's key-side working memory: the key each item mapped
// to, each pair's group, and the groups. None of it outlives the run, so
// runs recycle it through scratchPool. Besides the pipeline itself, a run
// then allocates only its value column, the shuffle's backing array and
// its result.
type scratch struct {
	keys   []string
	gidx   []int32
	groups []group
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// newPipeline sets up a run of k over k.n items.
func newPipeline[V any](k kernels[V]) *pipeline[V] {
	s := scratchPool.Get().(*scratch)
	s.keys = slices.Grow(s.keys, k.n)[:k.n]
	s.gidx = slices.Grow(s.gidx, k.n)[:k.n]
	return &pipeline[V]{kernels: k, scratch: s, vals: make([]V, k.n)}
}

// release returns the scratch to the pool without the keys it references.
func (p *pipeline[V]) release() {
	s := p.scratch
	clear(s.keys)
	clear(s.groups)
	s.keys, s.gidx, s.groups = s.keys[:0], s.gidx[:0], s.groups[:0]
	p.scratch = nil
	scratchPool.Put(s)
}

// group is one key's values in the shuffle's backing array,
// backing[off:end], in map-emission order.
type group struct {
	key      string
	off, end int
}

// step is one parallel phase: run processes index i, and where names index
// i in error text.
type step interface {
	run(i int) error
	where(i int) string
}

type mapStep[V any] pipeline[V]

func (s *mapStep[V]) run(i int) (err error) {
	s.keys[i], s.vals[i], err = s.mapf(i)
	return err
}

func (s *mapStep[V]) where(i int) string { return fmt.Sprintf("map item %d", i+1) }

type reduceStep[V any] pipeline[V]

func (s *reduceStep[V]) run(g int) error {
	grp := s.groups[g]
	v, err := s.reduce(grp.key, s.backing[grp.off:grp.end:grp.end])
	if err != nil {
		return err
	}
	if v == nil {
		v = value.TheNothing
	}
	s.out[g] = KVP{Key: grp.key, Val: value.CloneValue(v)}
	return nil
}

func (s *reduceStep[V]) where(g int) string { return fmt.Sprintf("reduce key %q", s.groups[g].key) }

// mapPhase fills keys[i], vals[i] with item i's mapped pair.
func (p *pipeline[V]) mapPhase(w int, canceled func() bool) error {
	return runPhase(p.n, w, canceled, "mapper", (*mapStep[V])(p))
}

// reducePhase folds each group into out, in sorted key order.
func (p *pipeline[V]) reducePhase(w int, canceled func() bool) error {
	p.out = make(Result, len(p.groups))
	return runPhase(len(p.groups), w, canceled, "reducer", (*reduceStep[V])(p))
}

// scanKeys is the distinct-key count up to which the shuffle finds a key's
// group by scanning the groups: for a handful of keys the scan is
// cache-resident, where a hash index costs three allocations and most of
// a microsecond before its first lookup.
const scanKeys = 16

// shuffle groups the intermediate pairs by key. "The elements of the
// intermediate result are sorted by the value of the key in between the
// map function and the reduce function" (footnote 6): the observable
// output — keys in sorted order, each key's values in map-emission order —
// is identical to stable-sorting all n pairs, but the comparison sort
// touches only the k distinct keys, which for low-cardinality workloads
// (word count, the single-key climate average) removes the dominant
// O(n log n) term. One pass buckets and counts the pairs, one scatter pass
// lays every group's values out contiguously in a single backing array,
// and then the groups are sorted by key; a group carries its own bounds,
// so the backing array never moves.
func (p *pipeline[V]) shuffle() {
	groups := p.groups[:0]
	var idx map[string]int32 // built once the groups outgrow the scan
	// last memoizes the previous pair's group: mappers that emit one key
	// for everything (the global-average pattern) or keys in runs pay one
	// lookup per run instead of one per pair.
	last := int32(-1)
	for i, k := range p.keys {
		g := last
		if g < 0 || groups[g].key != k {
			g = -1
			if idx != nil {
				if j, ok := idx[k]; ok {
					g = j
				}
			} else {
				for j := range groups {
					if groups[j].key == k {
						g = int32(j)
						break
					}
				}
			}
			if g < 0 {
				g = int32(len(groups))
				groups = append(groups, group{key: k})
				if idx != nil {
					idx[k] = g
				} else if len(groups) > scanKeys {
					idx = make(map[string]int32, 2*len(groups))
					for j, gr := range groups {
						idx[gr.key] = int32(j)
					}
				}
			}
			last = g
		}
		groups[g].end++ // counts the group's pairs until the scatter
		p.gidx[i] = g
	}
	off := 0
	for j := range groups {
		g := &groups[j]
		n := g.end
		g.off, g.end = off, off // end is the scatter cursor
		off += n
	}
	p.backing = make([]V, len(p.vals))
	for i, v := range p.vals {
		g := &groups[p.gidx[i]]
		p.backing[g.end] = v
		g.end++
	}
	slices.SortFunc(groups, func(a, b group) int { return strings.Compare(a.key, b.key) })
	p.groups = groups
}

// phaseGrain is how many records one executor claims per fetch-add in the
// map and reduce phases, amortizing the shared counter the way the worker
// pool's dynamic assignment does; small enough that skewed groups still
// balance across workers.
func phaseGrain(n, w int) int {
	return min(max(n/(w*4), 1), 64)
}

// runPhase executes s.run(i) for i in [0, n) across w executors of the
// worker pool's chunk loop (workers.RunChunks), each claiming grain-sized
// chunks off a shared counter. It returns the error of the lowest failing
// record, so the wording is the same at any w. When canceled is set, it
// is polled before each grain-sized chunk; once it reports true the phase
// stops claiming and fails with workers.ErrCanceled unless a record
// failed first.
func runPhase(n, w int, canceled func() bool, kernel string, s step) error {
	w = min(w, n)
	if w > 1 {
		return workers.RunChunks(n, w, phaseGrain(n, w), canceled, func(_, lo, hi int) error {
			return runChunk(s, kernel, lo, hi)
		})
	}
	// One executor needs no pool dispatch: it runs on the calling
	// goroutine — the interpreter thread, for the mapReduce block's
	// small inputs — in one chunk unless it has a cancel flag to poll
	// between chunks.
	grain := n
	if canceled != nil {
		grain = phaseGrain(n, 1)
	}
	for lo := 0; lo < n; lo += grain {
		if canceled != nil && canceled() {
			return workers.ErrCanceled
		}
		if err := runChunk(s, kernel, lo, min(lo+grain, n)); err != nil {
			return err
		}
	}
	return nil
}

// runChunk runs s over [lo, hi). One deferred recover contains the
// kernel's panics for the whole chunk, the loop cursor pinning which call
// failed: an error or panic at i becomes "<where(i)>: ..." and ends the
// chunk.
func runChunk(s step, kernel string, lo, hi int) (err error) {
	i := lo
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %s panic: %v", s.where(i), kernel, r)
		}
	}()
	for ; i < hi; i++ {
		if err := s.run(i); err != nil {
			return fmt.Errorf("%s: %w", s.where(i), err)
		}
	}
	return nil
}

// --- stock mappers and reducers ---

// Identity maps each item to itself under its display string as key — the
// identity function §3.4 notes "passes its input argument through
// unchanged".
func Identity(item value.Value) (string, value.Value, error) {
	return item.String(), item, nil
}

// SingleKey maps every item to one shared key (the empty string), putting
// the whole dataset in one reduction group — how the climate example's
// single average is expressed.
func SingleKey(item value.Value) (string, value.Value, error) {
	return "", item, nil
}

// WordCount maps a word to (word, 1) — the canonical example of Figure 11.
func WordCount(item value.Value) (string, value.Value, error) {
	return item.String(), value.NumInt(1), nil
}

// FahrenheitToCelsius maps a °F reading to ("", °C) for a global average,
// the Figure 13 mapper: out->val = ((5 * (in->val - 32)) / 9).
func FahrenheitToCelsius(item value.Value) (string, value.Value, error) {
	f, err := value.ToNumber(item)
	if err != nil {
		return "", nil, err
	}
	return "", (5 * (f - 32)) / 9, nil
}

// IdentityReduce reports the group's values unchanged (a single value
// collapses to itself).
func IdentityReduce(key string, vals *value.List) (value.Value, error) {
	if vals.Len() == 1 {
		return vals.MustItem(1), nil
	}
	return vals, nil
}

// SumReduce adds the group's values — the word-count reducer.
func SumReduce(key string, vals *value.List) (value.Value, error) {
	var sum value.Number
	for _, v := range vals.Items() {
		n, err := value.ToNumber(v)
		if err != nil {
			return nil, err
		}
		sum += n
	}
	return sum, nil
}

// CountReduce reports the group's size.
func CountReduce(key string, vals *value.List) (value.Value, error) {
	return value.NumInt(vals.Len()), nil
}

// AvgReduce averages the group — the Figure 20 reducer. For small groups
// it uses the same recursive running-average formulation as the paper's
// generated avg() — avg(a, n) = (a[0] + (n-1)·avg(a+1, n-1)) / n — with the
// parenthesization corrected: the C in Listing 6 reads
// `*a + ((count-1)*avg(...))/count`, which drops the division of the first
// element and is not an average. Large groups switch to an iterative mean
// to bound recursion depth.
func AvgReduce(key string, vals *value.List) (value.Value, error) {
	fs, err := vals.Floats()
	if err != nil {
		return nil, err
	}
	return value.Number(avgFloats(fs)), nil
}

// avgFloats is AvgReduce's arithmetic, shared with its registered column
// kernel.
func avgFloats(fs []float64) float64 {
	if len(fs) == 0 {
		return 0
	}
	if len(fs) > 4096 {
		var sum float64
		for _, f := range fs {
			sum += f
		}
		return sum / float64(len(fs))
	}
	return recAvg(fs)
}

func recAvg(a []float64) float64 {
	if len(a) == 1 {
		return a[0]
	}
	return (a[0] + float64(len(a)-1)*recAvg(a[1:])) / float64(len(a))
}
