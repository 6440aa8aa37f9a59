package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/blocks"
	"repro/internal/codegen"
	"repro/internal/evo/gen"
	"repro/internal/parse"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/vm"
	"repro/internal/xmlio"
)

const (
	runPath     = "/v1/run"
	codegenPath = "/v1/codegen"
)

// request is one generated input and the reply it must get.
type request struct {
	path string // runPath or codegenPath
	body []byte
	kind string // body family, for per-kind reporting
	want *expect
}

// expect is a request's correct outcome, computed before any timing.
type expect struct {
	status string   // runPath: the session status
	trace  []string // runPath: the stage trace; nil checks the status only
	source string   // codegenPath: the translation
}

// runaway reports whether the request is a forever loop that must time
// out. Those requests are excluded from the latency percentiles.
func (r *request) runaway() bool { return r.want.status == string(runtime.StatusTimeout) }

// plan is one workload's generated traffic for one seed.
type plan struct {
	reqs []request       // the measured sequence (open loop) or each client's cycle (closed loop)
	at   []time.Duration // open loop: each request's scheduled send time
	warm []request       // one request per distinct repeated body, sent during set-up
	tail []request       // closed loop: sent one at a time after the measured phase
}

// generator builds one workload's inputs from its seed and computes every
// input's expected outcome with the reference tier.
type generator struct {
	rnd  *rand.Rand
	ref  *reference
	used map[string]bool // fresh bodies already drawn, so every one is unique
}

// reference runs bodies on the tree walker — the engine's reference
// semantics — under the daemon's default limits and value caps.
type reference struct {
	mgr  *runtime.Manager
	memo map[string]*expect
}

func newReference() *reference {
	runtime.SetGlobalCaps(1_000_000, 1<<20) // snapserved's -maxlist and -maxtext defaults
	return &reference{
		mgr:  runtime.NewManager(runtime.Config{MaxConcurrent: 1}),
		memo: map[string]*expect{},
	}
}

// decodeProject mirrors the server's format auto-detection.
func decodeProject(src string) (*blocks.Project, error) {
	if strings.HasPrefix(strings.TrimSpace(src), "<") {
		return xmlio.DecodeProject(strings.NewReader(src))
	}
	return parse.Project(src)
}

// run executes src on the tree walker with the bytecode tier switched off.
func (r *reference) run(src string, lim runtime.Limits) (runtime.Result, error) {
	p, err := decodeProject(src)
	if err != nil {
		return runtime.Result{}, err
	}
	return r.runProject(p, lim)
}

func (r *reference) runProject(p *blocks.Project, lim runtime.Limits) (runtime.Result, error) {
	vm.SetEnabled(false)
	defer vm.SetEnabled(true)
	sess, err := r.mgr.Run(context.Background(), p, lim)
	if err != nil {
		return runtime.Result{}, err
	}
	<-sess.Done()
	res, _ := sess.Result()
	return res, nil
}

// expectRun returns the memoized reference outcome of a /v1/run body.
func (r *reference) expectRun(src string) (*expect, error) {
	if e, ok := r.memo[src]; ok {
		return e, nil
	}
	res, err := r.run(src, runtime.Limits{})
	if err != nil {
		return nil, err
	}
	if res.Status != runtime.StatusOK {
		return nil, fmt.Errorf("reference run ended %s: %s", res.Status, res.Error)
	}
	e := &expect{status: string(res.Status), trace: res.Trace}
	r.memo[src] = e
	return e, nil
}

// expectCodegen translates the project's first green-flag script the way
// the server does.
func expectCodegen(project, lang string) (*expect, error) {
	p, err := decodeProject(project)
	if err != nil {
		return nil, err
	}
	script := greenFlagScript(p)
	if script == nil {
		return nil, errors.New("no green-flag script")
	}
	src, err := emit(script, lang)
	if err != nil {
		return nil, err
	}
	return &expect{source: src}, nil
}

func greenFlagScript(p *blocks.Project) *blocks.Script {
	for _, sp := range p.Sprites {
		for _, hs := range sp.Scripts {
			if hs.Hat == blocks.HatGreenFlag {
				return hs.Script
			}
		}
	}
	return nil
}

// emit calls the emitter the server picks for lang.
func emit(script *blocks.Script, lang string) (string, error) {
	switch lang {
	case "c":
		return codegen.NewCEmitter().Program(script)
	case "openmp":
		return codegen.NewOpenMPEmitter().Program(script)
	default:
		tr, err := codegen.ForLang(lang)
		if err != nil {
			return "", err
		}
		return tr.Script(script, 0)
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

func (g *generator) runReq(kind, src string, want *expect) request {
	return request{path: runPath, body: mustJSON(server.RunRequest{Project: src}), kind: kind, want: want}
}

func (g *generator) runRef(kind, src string) (request, error) {
	want, err := g.ref.expectRun(src)
	if err != nil {
		return request{}, fmt.Errorf("%s: %w", kind, err)
	}
	return g.runReq(kind, src, want), nil
}

func (g *generator) codegenReq(kind, project, lang string) (request, error) {
	want, err := expectCodegen(project, lang)
	if err != nil {
		return request{}, fmt.Errorf("%s: %w", kind, err)
	}
	body := mustJSON(server.CodegenRequest{Project: project, Lang: lang})
	return request{path: codegenPath, body: body, kind: kind, want: want}, nil
}

// fresh draws a literal in [lo, hi) not drawn before under key.
func (g *generator) fresh(key string, lo, hi int) int {
	for {
		p := lo + g.rnd.Intn(hi-lo)
		k := key + "/" + strconv.Itoa(p)
		if !g.used[k] {
			g.used[k] = true
			return p
		}
	}
}

// says is the trace line a one-sprite "S" project leaves for (say v) at
// virtual time 0: the closed form the counting and parallelMap bodies are
// checked against.
func says(v int) *expect {
	return &expect{status: string(runtime.StatusOK), trace: []string{fmt.Sprintf(`[t=0] S says "%d"`, v)}}
}

// classroomBody is one of the paper's programs with one literal exposed:
// def gives the repeated body, and fresh variants change the literal.
type classroomBody struct {
	kind   string
	src    func(p int) string
	def    int
	lo, hi int                 // range fresh literals are drawn from
	closed func(p int) *expect // closed-form expected outcome, or nil for a reference run
}

func classroomBodies(root string) ([]classroomBody, error) {
	read := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join(root, "projects", name))
		return string(b), err
	}
	sblk, err := read("concession.sblk")
	if err != nil {
		return nil, err
	}
	par, err := read("concession-parallel.xml")
	if err != nil {
		return nil, err
	}
	seq, err := read("concession-sequential.xml")
	if err != nil {
		return nil, err
	}
	dragon, err := read("dragon.xml")
	if err != nil {
		return nil, err
	}
	replace := func(src, old, tmpl string) func(int) string {
		return func(p int) string { return strings.Replace(src, old, fmt.Sprintf(tmpl, p), 1) }
	}
	const text = "the quick brown fox jumps over the lazy dog and the cat sat on the mat with the dog"
	return []classroomBody{
		// Fresh concession variants move the pitcher: the trace is the
		// same, the body (and so its cache key) is new.
		{kind: "concession-sblk", src: replace(sblk, "(at -150 100)", "(at %d 100)"), def: -150, lo: 0, hi: 1 << 20},
		{kind: "concession-xml-par", src: replace(par, `x="-150"`, `x="%d"`), def: -150, lo: 0, hi: 1 << 20},
		{kind: "concession-xml-seq", src: replace(seq, `x="-150"`, `x="%d"`), def: -150, lo: 0, hi: 1 << 20},
		{kind: "dragon", src: replace(dragon, `<l kind="number">15</l>`, `<l kind="number">%d</l>`), def: 15, lo: 16, hi: 1 << 20},
		{kind: "wordcount", src: func(p int) string {
			words := text
			if p != 0 {
				words += " w" + strconv.Itoa(p)
			}
			return fmt.Sprintf(`(project "wordcount" (sprite "S" (when green-flag (do (say (mapreduce (ring (list _ 1)) (ring (combine _ (ring (+ _ _)))) (split %q " ")))))))`, words)
		}, def: 0, lo: 1, hi: 1 << 20},
		{kind: "parallelmap", src: func(p int) string {
			return fmt.Sprintf(`(project "parallelmap" (sprite "S" (when green-flag (do (declare r) (set r (parallelmap (ring (* _ %d)) (numbers 1 2000) 4)) (say (item 1999 $r))))))`, p)
		}, def: 10, lo: 11, hi: 1 << 20, closed: func(p int) *expect { return says(1999 * p) }},
		{kind: "climate", src: func(p int) string {
			return fmt.Sprintf(`(project "climate" (sprite "S" (when green-flag (do (say (mapreduce (ring (/ (* 5 (- _ %d)) 9)) (ring (/ (combine _ (ring (+ _ _))) (length _))) (numbers 1 5000)))))))`, p)
		}, def: 32, lo: 33, hi: 1 << 20},
		{kind: "counting", src: countingLoop, def: 1000, lo: 500, hi: 1500, closed: says},
		{kind: "e17-41-sprites", src: e17Project, def: 0, lo: 1, hi: 1 << 20},
	}, nil
}

func countingLoop(n int) string {
	return fmt.Sprintf(`(project "counting" (sprite "S" (when green-flag (do (declare n) (set n 0) (repeat %d (do (change n 1))) (say $n)))))`, n)
}

// e17Project is BenchmarkE17RepeatedRun's body: a one-block green-flag
// script plus 40 sprites of message-hat scripts that parse and lint but
// never run. p != 0 changes the green-flag literal.
func e17Project(p int) string {
	var b strings.Builder
	say := `"hi"`
	if p != 0 {
		say = fmt.Sprintf(`"hi %d"`, p)
	}
	fmt.Fprintf(&b, "(project \"repeat\"\n  (sprite \"Main\" (when green-flag (do (say %s))))\n", say)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "  (sprite \"S%d\" (when (receive \"m%d\") (do", i, i)
		for j := 0; j < 12; j++ {
			fmt.Fprintf(&b, " (say (join \"v%d-\" (+ %d %d)))", j, i, j)
		}
		b.WriteString(")))\n")
	}
	b.WriteString(")")
	return b.String()
}

const runawaySrc = `(project "runaway" (sprite "S" (when green-flag (do (declare n) (set n 0) (forever (do (change n 1)))))))`

// labels returns n labels drawn with exactly the mix's shares (rounded),
// in seeded random order: exact counts keep seeds comparable, since a rare
// class such as the runaway loops would otherwise swing from seed to seed.
func (g *generator) labels(mix map[string]float64, n int) []string {
	keys := make([]string, 0, len(mix))
	for k := range mix {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, n)
	for i, k := range keys {
		c := int(mix[k]*float64(n) + 0.5)
		if i == len(keys)-1 {
			c = n - len(out)
		}
		for ; c > 0 && len(out) < n; c-- {
			out = append(out, k)
		}
	}
	g.rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// spread moves every label equal to rare to evenly spaced slots, keeping
// the order of the others. Two runaway loops in flight at once would hold
// both of the generator's connections for their whole deadline; placed at
// random, the number of such overlaps in a run swings from run to run and
// with it the p99.
func spread(labels []string, rare string) []string {
	var rest []string
	count := 0
	for _, l := range labels {
		if l == rare {
			count++
		} else {
			rest = append(rest, l)
		}
	}
	out := make([]string, len(labels))
	for i, j, k := 0, 0, 0; i < len(out); i++ {
		if j < count && i == (2*j+1)*len(out)/(2*count) {
			out[i] = rare
			j++
		} else {
			out[i] = rest[k]
			k++
		}
	}
	return out
}

// count is the number of labels equal to l.
func count(labels []string, l string) int {
	n := 0
	for _, x := range labels {
		if x == l {
			n++
		}
	}
	return n
}

// arrivals returns n send times of a Poisson process over [0, span):
// given the count, Poisson arrival times are uniform order statistics.
func (g *generator) arrivals(n int, span time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(g.rnd.Int63n(int64(span)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// classroom builds the classroom (and routed) traffic: n requests.
func (g *generator) classroom(root string, n int, mix map[string]float64) (*plan, error) {
	bodies, err := classroomBodies(root)
	if err != nil {
		return nil, err
	}
	build := func(b classroomBody, p int) (request, error) {
		src := b.src(p)
		if b.closed != nil {
			return g.runReq(b.kind, src, b.closed(p)), nil
		}
		return g.runRef(b.kind, src)
	}
	var repeat []request
	for _, b := range bodies {
		r, err := build(b, b.def)
		if err != nil {
			return nil, err
		}
		repeat = append(repeat, r)
	}
	runaway := g.runReq("runaway", runawaySrc, &expect{status: string(runtime.StatusTimeout)})
	runaway.body = mustJSON(server.RunRequest{Project: runawaySrc, TimeoutMS: 20})
	var codegens []request
	for _, c := range []struct{ kind, src, lang string }{
		{"codegen-c", countingLoop(1000), "c"},
		{"codegen-openmp", countingLoop(1000), "openmp"},
		{"codegen-python", bodies[5].src(bodies[5].def), "python"},
	} {
		r, err := g.codegenReq(c.kind, c.src, c.lang)
		if err != nil {
			return nil, err
		}
		codegens = append(codegens, r)
	}

	pl := &plan{warm: append(append([]request{}, repeat...), codegens...)}
	pl.warm = append(pl.warm, runaway)
	// A fresh variant changes a body drawn with the repeat shares, in exact
	// counts: each fresh variant adds a Tier A entry, and the large ones
	// (the 41-sprite body) set the daemon's peak RSS.
	labels := spread(g.labels(mix, n), "runaway")
	freshFrom, repeatShare := map[string]float64{}, 0.0
	for _, b := range bodies {
		repeatShare += mix[b.kind]
	}
	for _, b := range bodies {
		freshFrom[b.kind] = mix[b.kind] / repeatShare
	}
	freshKinds := g.labels(freshFrom, count(labels, "fresh"))
	codegenN := 0
	for _, label := range labels {
		var r request
		switch label {
		case "codegen":
			r = codegens[codegenN%len(codegens)]
			codegenN++
		case "runaway":
			r = runaway
		case "fresh":
			kind := freshKinds[0]
			freshKinds = freshKinds[1:]
			b := bodies[slices.IndexFunc(bodies, func(b classroomBody) bool { return b.kind == kind })]
			if r, err = build(b, g.fresh(b.kind, b.lo, b.hi)); err != nil {
				return nil, err
			}
			r.kind = "fresh"
		default:
			i := slices.IndexFunc(bodies, func(b classroomBody) bool { return b.kind == label })
			if i < 0 {
				return nil, fmt.Errorf("unknown classroom mix entry %q", label)
			}
			r = repeat[i]
		}
		pl.reqs = append(pl.reqs, r)
	}
	return pl, nil
}

// freshProject wraps a generated program in a 5–60 sprite project: the
// program's sprite plus message-hat sprites that parse and lint but never
// run. Every literal comes from the seed, so every body is unique.
func (g *generator) freshProject(script *blocks.Script) *blocks.Project {
	p := gen.WrapScript(script)
	for i, n := 0, 4+g.rnd.Intn(56); i < n; i++ {
		sp := blocks.NewSprite(fmt.Sprintf("F%d", i))
		var bs []*blocks.Block
		for j, k := 0, 2+g.rnd.Intn(8); j < k; j++ {
			bs = append(bs, blocks.Say(blocks.Join(
				blocks.Txt(fmt.Sprintf("v%d-", g.rnd.Intn(1000))),
				blocks.Sum(blocks.Num(float64(g.rnd.Intn(1000))), blocks.Num(float64(j))))))
		}
		sp.AddScript(blocks.HatBroadcast, fmt.Sprintf("m%d", i), blocks.NewScript(bs...))
		p.AddSprite(sp)
	}
	return p
}

// freshBudget is the small step budget a generated program's reference run
// must finish within for the program to be kept.
var freshBudget = runtime.Limits{MaxSteps: 20_000, Timeout: 100 * time.Millisecond}

// freshRun draws generated projects until one finishes ok on the
// reference tier, and returns it as a /v1/run request — Snap! XML for
// every other request, textual .sblk otherwise.
func (g *generator) freshRun(asXML bool) (request, error) {
	for tries := 0; tries < 1000; tries++ {
		script := gen.Script(gen.Random(g.rnd, 24+g.rnd.Intn(40)))
		// The message-hat sprites never run, so the program alone decides
		// the outcome: screen it before paying for the wrapping.
		if res, err := g.ref.runProject(gen.WrapScript(script), freshBudget); err != nil || res.Status != runtime.StatusOK {
			continue
		}
		p := g.freshProject(script)
		var src string
		var err error
		if asXML {
			var b bytes.Buffer
			if err := xmlio.EncodeProject(&b, p); err != nil {
				continue
			}
			src = b.String()
		} else if src, err = parse.PrintProject(p); err != nil {
			continue
		}
		if g.used[src] {
			continue
		}
		res, err := g.ref.run(src, freshBudget)
		if err != nil || res.Status != runtime.StatusOK {
			continue
		}
		g.used[src] = true
		kind := "fresh-sblk"
		if asXML {
			kind = "fresh-xml"
		}
		return g.runReq(kind, src, &expect{status: string(res.Status), trace: res.Trace}), nil
	}
	return request{}, errors.New("no generated program passed the reference run")
}

// freshProjects builds the fresh-projects traffic: n unique bodies.
func (g *generator) freshProjects(n int, mix map[string]float64) (*plan, error) {
	pl := &plan{}
	for i, label := range g.labels(mix, n) {
		var r request
		var err error
		switch label {
		case "fresh":
			r, err = g.freshRun(i%2 == 0)
		case "codegen":
			lang := []string{"c", "openmp"}[i%2]
			r, err = g.codegenReq("codegen-"+lang, countingLoop(g.fresh("codegen", 2000, 1<<20)), lang)
		default:
			err = fmt.Errorf("unknown fresh-projects mix entry %q", label)
		}
		if err != nil {
			return nil, err
		}
		pl.reqs = append(pl.reqs, r)
	}
	// Warm-up elaborates throwaway programs of the same shape, so set-up
	// pays first-use costs without caching any measured body.
	for i := 0; i < 4; i++ {
		r, err := g.freshRun(i%2 == 0)
		if err != nil {
			return nil, err
		}
		pl.warm = append(pl.warm, r)
	}
	return pl, nil
}

// dataBodies are the data-mapreduce programs: a keyed climate average over
// 100k readings, a word count over a ~50k-word text, and ten parallelMaps
// over 100k items with two workers. The seed picks their literals.
func (g *generator) dataBodies() ([]request, error) {
	stations := 8 + g.rnd.Intn(16)
	climate := fmt.Sprintf(`(project "climate-keyed" (sprite "S" (when green-flag (do (say (mapreduce (ring (list (mod _ %d) (/ (* 5 (- _ 32)) 9))) (ring (/ (combine _ (ring (+ _ _))) (length _))) (numbers 1 100000)))))))`, stations)

	vocab := make([]string, 400)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%x", g.rnd.Intn(1<<20))
	}
	words := make([]string, 50_000)
	for i := range words {
		// Squaring a uniform draw skews the counts toward the first words,
		// as word frequencies in text are skewed.
		u := g.rnd.Float64()
		words[i] = vocab[int(u*u*float64(len(vocab)))]
	}
	wordcount := fmt.Sprintf(`(project "wordcount-50k" (sprite "S" (when green-flag (do (say (mapreduce (ring (list _ 1)) (ring (combine _ (ring (+ _ _)))) (split %q " ")))))))`, strings.Join(words, " "))

	factor, idx := 2+g.rnd.Intn(98), 1+g.rnd.Intn(100_000)
	pmap := fmt.Sprintf(`(project "parallelmap-100k" (sprite "S" (when green-flag (do (declare r) (repeat 10 (do (set r (parallelmap (ring (* _ %d)) (numbers 1 100000) 2)))) (say (item %d $r))))))`, factor, idx)

	var out []request
	for _, b := range []struct{ kind, src string }{{"climate-100k", climate}, {"wordcount-50k", wordcount}} {
		r, err := g.runRef(b.kind, b.src)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return append(out, g.runReq("parallelmap-100k", pmap, says(factor*idx))), nil
}

// dataMapReduce builds the closed-loop clients' cycle of data runs in
// seeded order, and the codegen requests that follow it.
func (g *generator) dataMapReduce() (*plan, error) {
	data, err := g.dataBodies()
	if err != nil {
		return nil, err
	}
	cg, err := g.codegenReq("codegen-python", `(project "parallelmap" (sprite "S" (when green-flag (do (declare r) (set r (parallelmap (ring (* _ 10)) (numbers 1 2000) 4)) (say (item 1999 $r))))))`, "python")
	if err != nil {
		return nil, err
	}
	pl := &plan{warm: append(append([]request{}, data...), cg)}
	for round := 0; round < 64; round++ {
		for _, i := range g.rnd.Perm(len(data)) {
			pl.reqs = append(pl.reqs, data[i])
		}
	}
	for i := 0; i < codegenTail; i++ {
		pl.tail = append(pl.tail, cg)
	}
	return pl, nil
}

// codegenTail is how many codegen requests follow a closed-loop phase,
// one every tailGap. Sent between data runs they would each queue behind
// the other client's run, and their latency would measure that contention
// instead of the translation; spacing them out spreads them over the
// host's second-to-second speed swings.
const (
	codegenTail = 300
	tailGap     = 20 * time.Millisecond
)

// buildPlan generates a workload's traffic for one seed. n is the number
// of open-loop requests.
func buildPlan(root, name string, spec workloadSpec, seed int64, n int, span time.Duration) (*plan, error) {
	g := &generator{rnd: rand.New(rand.NewSource(seed)), ref: newReference(), used: map[string]bool{}}
	var pl *plan
	var err error
	switch name {
	case "classroom", "routed":
		pl, err = g.classroom(root, n, spec.Mix)
	case "fresh-projects":
		pl, err = g.freshProjects(n, spec.Mix)
	case "data-mapreduce":
		pl, err = g.dataMapReduce()
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	if spec.Loop == "open" {
		pl.at = g.arrivals(len(pl.reqs), span)
	}
	return pl, nil
}
