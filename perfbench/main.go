// Command perfbench is the repository's served-traffic benchmark. It
// builds nothing itself (run.sh builds it and the daemons from the
// checkout), launches the real daemons over loopback — snapserved, or
// snapshardd in front of two snapserved backends, default flags except
// addresses — and drives one seeded workload at them from this one
// process, over at most nproc connections and threads.
//
//	perfbench --workload classroom --seed 1 --seconds 10 --trace 0
//	perfbench --workload classroom --seed 1 --seconds 10 --trace 1
//	perfbench --smoke
//
// --trace 0 reports the end-to-end metrics of the workload with tracing
// off. --trace 1 replays a fixed sample of the workload in process and
// reports per-layer metrics from spans around calls into each layer and
// from the engine's /metrics counters. --smoke runs every workload for a
// few seconds in both modes and checks the metric names, units and
// failure count against BENCHMARK.json. The last line of standard output
// is one JSON object: correct, attempted, failed, metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// workloadSpec is one workload's entry in workloads.json.
type workloadSpec struct {
	SameAs  string             `json:"same_as"` // take every field but target and why from this workload
	Loop    string             `json:"loop"`    // "open" or "closed"
	Target  string             `json:"target"`  // "direct" or "routed"
	RateRPS float64            `json:"rate_rps"`
	Sample  int                `json:"traced_sample"`
	Mix     map[string]float64 `json:"mix"`
}

type config struct {
	Workloads map[string]workloadSpec `json:"workloads"`
	Targets   map[string]struct {
		Moves     string   `json:"moves"`
		Workloads []string `json:"workloads"`
	} `json:"per_layer_targets"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, spec := range c.Workloads {
		if spec.SameAs == "" {
			continue
		}
		base, ok := c.Workloads[spec.SameAs]
		if !ok || base.SameAs != "" {
			return nil, fmt.Errorf("workloads.json: %s: same_as %q names no plain workload", name, spec.SameAs)
		}
		base.Target = spec.Target
		c.Workloads[name] = base
	}
	return &c, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run launches and warms the daemons; setup_s
// is their median, and the last set-up serves the measured phase.
const setups = 5

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see workloads.json)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
		binDir   = flag.String("bin", ".bench_build/perfbench/bin", "directory holding the snapserved and snapshardd binaries")
		outDir   = flag.String("out", ".bench_build/perfbench", "directory the traced run writes its spans to")
		smoke    = flag.Bool("smoke", false, "run every workload briefly in both modes and check the output against BENCHMARK.json")
		closed   = flag.Bool("closed", false, "drive the workload closed-loop with nproc clients and print its capacity (how the open-loop rates were set)")
	)
	flag.Parse()
	cfg, err := loadConfig()
	if err != nil {
		fail(err)
	}
	if *smoke {
		if err := runSmoke(cfg, *binDir, *outDir, *seed); err != nil {
			fail(err)
		}
		return
	}
	spec, ok := cfg.Workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *closed {
		spec.Loop = "closed"
	}
	span := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = runTraced(*workload, spec, *seed, *outDir)
	} else {
		res, err = runE2E(*workload, spec, *seed, span, *binDir)
	}
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// nproc is the generator's connection and thread cap.
func nproc() int { return goruntime.NumCPU() }

func init() { goruntime.GOMAXPROCS(nproc()) }

// openCount is the number of requests an open-loop run schedules.
func openCount(spec workloadSpec, span time.Duration) int {
	return int(math.Round(spec.RateRPS * span.Seconds()))
}

// runE2E measures one workload against the real daemons with tracing off.
func runE2E(name string, spec workloadSpec, seed int64, span time.Duration, binDir string) (*result, error) {
	pl, err := buildPlan(".", name, spec, seed, openCount(spec, span), span)
	if err != nil {
		return nil, err
	}
	conns := nproc()

	var setupS []float64
	var cl *cluster
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if cl, err = startCluster(binDir, spec.Target); err != nil {
			return nil, err
		}
		if err := warmUp(cl.front, pl.warm); err != nil {
			cl.stop()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			cl.stop()
		}
	}

	clients := newClients(conns)
	// The generator sends on one thread: it needs little CPU, and every
	// thread it adds competes with the daemons for the host's nproc CPUs.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	cpu0, err := cl.cpu()
	if err != nil {
		cl.stop()
		return nil, err
	}
	var outs []outcome
	if spec.Loop == "open" {
		outs = openLoop(clients, cl.front, pl)
	} else {
		outs = closedLoop(clients, cl.front, pl, span)
	}
	// The CPU and the completed requests are counted before the codegen
	// tail, so cpu_ms_per_req is the cost of the measured phase alone.
	cpu1, err := cl.cpu()
	completed := 0
	for i := range outs {
		if outs[i].err == nil {
			completed++
		}
	}
	if err == nil && len(pl.tail) > 0 {
		outs = append(outs, sequential(clients[0], cl.front, pl.tail, outs[len(outs)-1].end, tailGap)...)
	}
	closeClients(clients)
	peakMB := cl.stop()
	if err != nil {
		return nil, err
	}

	st := summarize(outs)
	res := &result{
		Correct:   st.failed == 0,
		Attempted: len(outs),
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setupS), "s"},
			"p50_ms":         {ms(st.p50), "ms"},
			"ok_rps":         {st.okRPS, "req/s"},
			"cpu_ms_per_req": {ms(cpu1-cpu0) / float64(completed), "ms"},
			"peak_rss_mb":    {peakMB, "MB"},
			"codegen_p50_ms": {ms(st.codegenP50), "ms"},
		},
	}
	// fail_ratio and p99_ms are printed here, not reported as metrics:
	// fail_ratio is 0 on a correct run (the result line carries failed and
	// attempted), and p99_ms swings with the host's CPU speed by more than
	// any bound a metric may have (see NOTES.md).
	fmt.Printf("%s seed=%d loop=%s conns=%d: %d requests, %d failed (fail_ratio %.4f); p50_ms %.3f and p99_ms %.3f over %d run latencies; codegen_p50_ms over %d; lag p99 %.3f ms\n",
		name, seed, spec.Loop, conns, len(outs), st.failed, float64(st.failed)/float64(len(outs)),
		ms(st.p50), ms(st.p99), st.runSamples, st.codegenSamples, ms(st.lagP99))
	for _, e := range st.errors {
		fmt.Println("  failure:", e)
	}
	if spec.Loop == "open" {
		if why := st.invalid(span); why != "" {
			// The schedule was not kept, so the latencies do not describe
			// the offered load: the run must not count.
			fmt.Println("  INVALID run:", why)
			res.Correct = false
		}
	}
	return res, nil
}

// warmUp sends every warm-up request once, in order, and checks each.
func warmUp(base string, reqs []request) error {
	clients := newClients(1)
	defer closeClients(clients)
	for i := range reqs {
		code, body, err := send(clients[0], base, &reqs[i])
		if err := check(&reqs[i], code, body, err); err != nil {
			return fmt.Errorf("warm-up %s: %w", reqs[i].kind, err)
		}
	}
	return nil
}

// stats summarizes a measured phase.
type stats struct {
	p50, p99, codegenP50, lagP99 time.Duration
	okRPS                        float64
	failed                       int
	runSamples, codegenSamples   int
	lastLag, runEnd              time.Duration
	errors                       []string
}

// failedLatency stands for a failed request in the percentiles: a failure
// misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

func summarize(outs []outcome) stats {
	var st stats
	var run, cg, lag []time.Duration
	okRuns := 0
	for i := range outs {
		o := &outs[i]
		err := check(o.req, o.code, o.body, o.err)
		if err != nil {
			st.failed++
			if len(st.errors) < 5 {
				st.errors = append(st.errors, fmt.Sprintf("%s: %v", o.req.kind, err))
			}
		}
		lat := o.latency()
		if err != nil {
			lat = failedLatency
		}
		switch {
		case o.req.path == codegenPath:
			cg = append(cg, lat)
		case err == nil && o.req.runaway():
			okRuns++ // correct, but outside the latency percentiles
		default:
			run = append(run, lat)
			if err == nil {
				okRuns++
			}
		}
		lag = append(lag, o.start-o.due)
		if o.req.path == runPath && o.end > st.runEnd {
			st.runEnd = o.end
		}
	}
	st.runSamples, st.codegenSamples = len(run), len(cg)
	st.p50, st.p99 = percentile(run, 0.50), percentile(run, 0.99)
	st.codegenP50 = percentile(cg, 0.50)
	st.lagP99 = percentile(lag, 0.99)
	if n := len(lag); n > 0 {
		// The backlog at the end of the run: the median lateness of the
		// last tenth of the requests.
		st.lastLag = percentile(lag[n-n/10:], 0.5)
	}
	// The measured phase ends with the last /v1/run reply, so a backlog
	// that drains after the schedule lowers the rate.
	st.okRPS = float64(okRuns) / st.runEnd.Seconds()
	return st
}

// invalid explains why an open-loop run did not keep its schedule, or
// returns "".
func (st *stats) invalid(span time.Duration) string {
	switch {
	case st.lastLag > 50*time.Millisecond:
		return fmt.Sprintf("backlog grew: the last tenth of the requests went out %.1f ms late", ms(st.lastLag))
	case st.lagP99 > 250*time.Millisecond:
		return fmt.Sprintf("generator fell behind schedule: lag p99 %.1f ms", ms(st.lagP99))
	case st.runEnd > span+2*time.Second:
		return fmt.Sprintf("the run ended %.1f s after its schedule", (st.runEnd - span).Seconds())
	}
	return ""
}

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
