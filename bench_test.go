package repro

// The benchmark harness: one benchmark per figure/table of the paper (the
// E-numbers of DESIGN.md's experiment index) plus the ablation benches for
// the design choices DESIGN.md calls out. Absolute numbers are
// host-dependent; the assertions that the *values* match the paper live in
// the package test suites — these benches time the reproduction paths and
// print the derived quantities (timesteps, imbalance, speedup) once per
// run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/blocks"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/demos"
	"repro/internal/dist"
	"repro/internal/interp"
	"repro/internal/mapreduce"
	"repro/internal/noaa"
	"repro/internal/omp"
	"repro/internal/parse"
	"repro/internal/progcache"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/value"
	"repro/internal/vclock"
	"repro/internal/vm"
	"repro/internal/workers"
	"repro/internal/xmlio"
)

// BenchmarkE1SeqMap times Figure 4's sequential map block.
func BenchmarkE1SeqMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := demos.EvalBlock(demos.Fig4SeqMap()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2ParallelMap times the parallelMap block of Figures 5–6 across
// worker counts, on the same 200-element list every PR has measured so the
// committed baselines stay comparable. Note the wall-clock caveat: the
// bench container exposes a single CPU, so ns/op cannot drop as workers
// are added — what this series can show is the absolute cost of the block
// and how little adding workers costs when there is no parallel hardware
// to use them (the E10 vspeedup metric carries the scaling evidence).
func BenchmarkE2ParallelMap(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			blk := demos.Fig5ParallelMap(
				blocks.Numbers(blocks.Num(1), blocks.Num(200)),
				blocks.Num(float64(w)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := demos.EvalBlock(blk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3ConcessionParallel runs the Figure 9 parallel concession
// stand; the metric "timesteps" must be 3.
func BenchmarkE3ConcessionParallel(b *testing.B) {
	var timer int64
	for i := 0; i < b.N; i++ {
		res, err := demos.RunConcession(true)
		if err != nil {
			b.Fatal(err)
		}
		timer = res.Timer
	}
	b.ReportMetric(float64(timer), "timesteps")
}

// BenchmarkE4ConcessionSequential runs the Figure 10 sequential stand; the
// metric must be 12.
func BenchmarkE4ConcessionSequential(b *testing.B) {
	var timer int64
	for i := 0; i < b.N; i++ {
		res, err := demos.RunConcession(false)
		if err != nil {
			b.Fatal(err)
		}
		timer = res.Timer
	}
	b.ReportMetric(float64(timer), "timesteps")
}

// BenchmarkE5WordCount times the Figures 11–12 word count, block and
// engine paths.
func BenchmarkE5WordCount(b *testing.B) {
	b.Run("block", func(b *testing.B) {
		blk := demos.WordCountBlock("the quick brown fox jumps over the lazy dog the end")
		for i := 0; i < b.N; i++ {
			if _, err := demos.EvalBlock(blk); err != nil {
				b.Fatal(err)
			}
		}
	})
	words := value.FromStrings(strings.Fields(strings.Repeat("alpha beta gamma delta beta ", 200)))
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("engine/words=1000/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mapreduce.Run(words, mapreduce.WordCount,
					mapreduce.SumReduce, mapreduce.Config{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6Climate times the Figure 13 climate averaging over NOAA-scale
// data: the engine alone per reading count, and the block program through
// a machine ("session"), whose rounds/op and steps/op price the session's
// wait for the job next to the engine's own time.
func BenchmarkE6Climate(b *testing.B) {
	for _, readings := range []int{1000, 10000} {
		days := readings / 10
		ds := noaa.Generate(noaa.Config{
			Stations: 10, StartYear: 2000, EndYear: 2000,
			DaysPerYear: days, Seed: 3,
		})
		temps := ds.TempsF()
		b.Run(fmt.Sprintf("readings=%d", temps.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mapreduce.Run(temps, mapreduce.FahrenheitToCelsius,
					mapreduce.AvgReduce, mapreduce.Config{Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("session", func(b *testing.B) {
		project, err := parse.Project(`(project "climate" (sprite "S" (when green-flag (do
			(say (mapreduce (ring (/ (* 5 (- _ 32)) 9))
			                (ring (/ (combine _ (ring (+ _ _))) (length _)))
			                (numbers 1 5000)))))))`)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		var rounds, steps int64
		for i := 0; i < b.N; i++ {
			m := interp.NewMachine(project, nil)
			m.GreenFlag()
			if err := m.Run(0); err != nil {
				b.Fatal(err)
			}
			rounds += m.Round()
			steps += m.Steps()
		}
		b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	})
}

// BenchmarkE7Listing5 times the Snap!→C translation of Figure 16.
func BenchmarkE7Listing5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Listing5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8OpenMPGen times the mapReduce→OpenMP artifact generation of
// Figures 18–20.
func BenchmarkE8OpenMPGen(b *testing.B) {
	blk := blocks.MapReduce(
		blocks.RingOf(blocks.Quotient(
			blocks.Product(blocks.Num(5), blocks.Difference(blocks.Empty(), blocks.Num(32))),
			blocks.Num(9))),
		blocks.RingOf(blocks.Quotient(
			blocks.Combine(blocks.Empty(), blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))),
			blocks.LengthOf(blocks.Empty()))),
		blocks.ListOf(blocks.Num(32), blocks.Num(212)))
	for i := 0; i < b.N; i++ {
		if _, err := codegen.MapReduceFiles(blk, []float64{32, 212}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Survey times the §5 tabulation.
func BenchmarkE9Survey(b *testing.B) {
	out, err := bench.E9()
	if err != nil || out == "" {
		b.Fatal(err)
	}
	e, _ := bench.Lookup("e9")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Scaling measures the worker pool under skewed element costs
// for each assignment policy, reporting virtual speedup (total cost over
// the busiest worker) as the policy-quality metric.
func BenchmarkE10Scaling(b *testing.B) {
	const n = 2000
	in := value.Range(1, n, 1)
	burn := func(v value.Value) (value.Value, error) {
		x, _ := value.ToNumber(v)
		acc := 0.0
		for i := 0; i < int(x); i++ {
			acc += float64(i)
		}
		_ = acc
		return x, nil
	}
	cost := func(i int) int64 { return int64(i + 1) }
	for _, policy := range []workers.Assignment{workers.Block, workers.Interleaved, workers.Dynamic} {
		for _, w := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", policy, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := workers.New(in, workers.Options{
						MaxWorkers: w, Assignment: policy, Cost: cost,
					})
					if _, err := p.Map(burn).Wait(); err != nil {
						b.Fatal(err)
					}
				}
				max, costs := workers.VirtualMakespan(n, w, policy, cost)
				var total int64
				for _, c := range costs {
					total += c
				}
				b.ReportMetric(float64(total)/float64(max), "vspeedup")
			})
		}
	}
}

// BenchmarkE11Schedules ablates the omp loop schedules on skewed work.
func BenchmarkE11Schedules(b *testing.B) {
	const n, threads = 2000, 4
	for _, cfg := range []omp.ForConfig{
		{Threads: threads, Schedule: omp.Static},
		{Threads: threads, Schedule: omp.Static, Chunk: 64},
		{Threads: threads, Schedule: omp.Dynamic, Chunk: 16},
		{Threads: threads, Schedule: omp.Guided},
	} {
		name := cfg.Schedule.String()
		if cfg.Chunk > 0 {
			name = fmt.Sprintf("%s_chunk%d", name, cfg.Chunk)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				omp.For(n, cfg, func(i, tid int) {
					acc := 0.0
					for k := 0; k < i; k++ {
						acc += float64(k)
					}
					_ = acc
				})
			}
			max, costs := omp.SimulateMakespan(n, cfg, func(i int) int64 { return int64(i) })
			var total int64
			for _, c := range costs {
				total += c
			}
			b.ReportMetric(float64(total)/float64(max), "vspeedup")
		})
	}
}

// BenchmarkE12Batch times the batch workflow of §6.3.
func BenchmarkE12Batch(b *testing.B) {
	e, _ := bench.Lookup("e12")
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Interleaving times the §2 concurrency demonstration.
func BenchmarkE13Interleaving(b *testing.B) {
	e, _ := bench.Lookup("e13")
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14DistMapReduce times the inter-node MapReduce across node
// counts, reporting shuffle volume.
func BenchmarkE14DistMapReduce(b *testing.B) {
	in := value.FromStrings(strings.Fields(strings.Repeat("alpha beta gamma delta ", 250)))
	for _, nodes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var shuffled int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, stats, err := dist.MapReduce(in, mapreduce.WordCount,
					mapreduce.SumReduce, dist.Config{Nodes: nodes, WorkersPerNode: 2})
				if err != nil {
					b.Fatal(err)
				}
				shuffled = stats.ShuffleMessages
			}
			b.ReportMetric(float64(shuffled), "shuffled")
		})
	}
}

// BenchmarkE15Contrast times the three-dialect generation of §6.1.
func BenchmarkE15Contrast(b *testing.B) {
	e, _ := bench.Lookup("e15")
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16Scheduling times the FIFO vs backfill job-mix comparison.
func BenchmarkE16Scheduling(b *testing.B) {
	e, _ := bench.Lookup("e16")
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17RepeatedRun times the classroom workload the content-
// addressed program cache targets: the same project body POSTed to
// /v1/run over and over. The project is elaboration-heavy (dozens of
// sprites full of message-hat scripts that parse and lint but never run)
// and its green-flag work is trivial, so the cached/uncached split
// isolates the parse+lint share of a request. "uncached" disables the
// cache (CacheBytes < 0) — the pre-cache server, re-elaborating per
// request.
func BenchmarkE17RepeatedRun(b *testing.B) {
	body := e17Body(b)
	for _, mode := range []struct {
		name       string
		cacheBytes int64
	}{{"cached", 0}, {"uncached", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			srv := server.New(server.Config{
				Runtime:    runtime.Config{MaxConcurrent: 4, MaxQueue: 8},
				CacheBytes: mode.cacheBytes,
			})
			h := srv.Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// e17Body is E17's request body: 41 sprites, 16.5 KB of JSON.
func e17Body(b *testing.B) []byte {
	body, err := json.Marshal(map[string]string{"project": e17Source()})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// e17Source is E17's project: a one-block green-flag script plus 40
// sprites of twelve message-hat blocks each, 15.3 KB of .sblk text.
func e17Source() string {
	var src strings.Builder
	src.WriteString("(project \"repeat\"\n")
	src.WriteString("  (sprite \"Main\" (when green-flag (do (say \"hi\"))))\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, "  (sprite \"S%d\" (when (receive \"m%d\") (do", i, i)
		for j := 0; j < 12; j++ {
			fmt.Fprintf(&src, " (say (join \"v%d-\" (+ %d %d)))", j, i, j)
		}
		src.WriteString(")))\n")
	}
	src.WriteString(")")
	return src.String()
}

// BenchmarkLayer times single layers of a served request, named after
// perfbench's traced spans so a moving end-to-end row can be pinned to
// the layer that moved it.
//
//   - server.json/<body>/served reads the request envelope as the server
//     does on its accept path (progcache.ScanEnvelope, the project left
//     raw) and encodes the server's own reply as handleRun does
//     (RunResponse.AppendJSON into a reused buffer). <body>/indent
//     encodes the same bytes with json.MarshalIndent, the reference the
//     served encoder is held to; <body>/compact encodes with Marshal: the
//     difference is what the indented reply format costs.
//   - parse.project/<body> reads a .sblk project into its block AST
//     (parse.Project), the work of a Tier A miss before linting.
//   - progcache.get is a Tier A hit on the E17 body: its key (a hash of
//     the raw project token) plus the lookup.
//   - interp.machine_build/<body> builds the machine a Tier A hit runs:
//     from the entry's run plan (interp.Plan.NewMachine).
//   - stage.snapshot/e17 renders the final stage of an E17 run, 41
//     sprites, as each reply carries it.
//   - vm.lower/<body>/hit resolves the body's green-flag scripts through
//     the warm lowered-program memo (vm.Lookup); <body>/miss lowers them
//     afresh (vm.LowerScript), as a cold memo does.
func BenchmarkLayer(b *testing.B) {
	xml, err := os.ReadFile("projects/concession-parallel.xml")
	if err != nil {
		b.Fatal(err)
	}
	counting := `(project "counting" (sprite "S" (when green-flag (do (declare n) (set n 0) (repeat 1000 (do (change n 1))) (say $n)))))`
	bodies := []struct {
		name string
		body []byte
	}{
		{"e17", e17Body(b)},
		{"concession-xml", mustMarshal(b, server.RunRequest{Project: string(xml)})},
		{"counting", mustMarshal(b, server.RunRequest{Project: counting})},
	}
	h := server.New(server.Config{Runtime: runtime.Config{MaxConcurrent: 4, MaxQueue: 8}}).Handler()
	for _, bd := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/run", bytes.NewReader(bd.body)))
		var reply server.RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != 200 {
			b.Fatalf("%s: %d %s", bd.name, rec.Code, rec.Body.String())
		}
		var buf []byte
		for _, enc := range []struct {
			name    string
			marshal func(any) ([]byte, error)
		}{
			{"served", func(any) ([]byte, error) { buf = reply.AppendJSON(buf[:0]); return buf, nil }},
			{"indent", func(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }},
			{"compact", json.Marshal},
		} {
			b.Run("server.json/"+bd.name+"/"+enc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					env, ok := progcache.ScanEnvelope(bd.body)
					if !ok || env.Project.Empty() {
						b.Fatal("the scanner refused the body")
					}
					if _, err := enc.marshal(reply); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	sblk, err := os.ReadFile("projects/concession.sblk")
	if err != nil {
		b.Fatal(err)
	}
	for _, ps := range []struct{ name, src string }{
		{"e17-41-sprites", e17Source()},
		{"concession-sblk", string(sblk)},
	} {
		b.Run("parse.project/"+ps.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := parse.Project(ps.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	b.Run("progcache.get", func(b *testing.B) {
		body := bodies[0].body
		cache := progcache.NewProjects(progcache.DefaultProjectBudget)
		env, _ := progcache.ScanEnvelope(body)
		load := func() *progcache.ProjectEntry { return &progcache.ProjectEntry{} }
		cache.Lookup(env.Key(body), load)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, out := cache.Lookup(env.Key(body), load); out != progcache.OutcomeHit {
				b.Fatal("miss")
			}
		}
	})

	countingProject, err := parse.Project(counting)
	if err != nil {
		b.Fatal(err)
	}
	xmlProject, err := xmlio.DecodeProject(bytes.NewReader(xml))
	if err != nil {
		b.Fatal(err)
	}
	e17Project, err := parse.Project(e17Source())
	if err != nil {
		b.Fatal(err)
	}
	for _, mb := range []struct {
		name    string
		project *blocks.Project
	}{{"e17", e17Project}, {"concession-xml", xmlProject}} {
		b.Run("interp.machine_build/"+mb.name, func(b *testing.B) {
			plan := interp.NewPlan(mb.project)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.NewMachine(vclock.New())
			}
		})
	}
	b.Run("stage.snapshot/e17", func(b *testing.B) {
		m := interp.NewMachine(e17Project, vclock.New())
		m.GreenFlag()
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		if n := len(m.Stage.Snapshot()); n != 41 {
			b.Fatalf("%d stage lines, want 41", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Stage.Snapshot()
		}
	})
	for _, lp := range []struct {
		name    string
		project *blocks.Project
	}{{"counting", countingProject}, {"concession-xml", xmlProject}} {
		var scripts []*blocks.Script
		for _, sp := range lp.project.Sprites {
			for _, hs := range sp.Scripts {
				if hs.Hat == blocks.HatGreenFlag {
					scripts = append(scripts, hs.Script)
				}
			}
		}
		for _, lw := range []struct {
			name  string
			lower func(*blocks.Script) *vm.Program
		}{{"hit", vm.Lookup}, {"miss", vm.LowerScript}} {
			b.Run("vm.lower/"+lp.name+"/"+lw.name, func(b *testing.B) {
				for _, s := range scripts {
					lw.lower(s)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, s := range scripts {
						lw.lower(s)
					}
				}
			})
		}
	}

	// shard.forward: the counting body, cached on its backend, through
	// shard.New's handler to one loopback snapserved, over the router's
	// own connection pools and over Config.Client with http.Transport.
	// The two differ only in the hop.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // ends at Close
	defer hs.Close()
	for _, fw := range []struct {
		name   string
		client *http.Client
	}{{"default", nil}, {"transport", &http.Client{Transport: &http.Transport{}}}} {
		b.Run("shard.forward/"+fw.name, func(b *testing.B) {
			rt, err := shard.New(shard.Config{Backends: []string{"http://" + ln.Addr().String()}, Client: fw.client, HealthInterval: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/run", bytes.NewReader(bodies[2].body)))
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

func mustMarshal(b *testing.B, v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkE18RoutedRun prices the shard-router hop: the same cached
// repeat-run workload as E17, submitted directly to one snapserved
// versus through snapshardd's router over three real loopback backends.
// "direct" is E17/cached re-measured in this harness (in-process handler,
// no network); "routed" adds the router's placement hash, the admission
// gate, and a full proxied HTTP round trip to the owning backend. The
// body is identical every iteration, so the routed path also pins cache
// affinity under load: one backend elaborates once, everything else is
// hits.
func BenchmarkE18RoutedRun(b *testing.B) {
	var src strings.Builder
	src.WriteString("(project \"routed\"\n")
	src.WriteString("  (sprite \"Main\" (when green-flag (do (say \"hi\"))))\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, "  (sprite \"S%d\" (when (receive \"m%d\") (do", i, i)
		for j := 0; j < 12; j++ {
			fmt.Fprintf(&src, " (say (join \"v%d-\" (+ %d %d)))", j, i, j)
		}
		src.WriteString(")))\n")
	}
	src.WriteString(")")
	body, err := json.Marshal(map[string]string{"project": src.String()})
	if err != nil {
		b.Fatal(err)
	}
	newBackend := func() *server.Server {
		return server.New(server.Config{Runtime: runtime.Config{MaxConcurrent: 4, MaxQueue: 8}})
	}
	drive := func(b *testing.B, h http.Handler) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}

	b.Run("direct", func(b *testing.B) {
		drive(b, newBackend().Handler())
	})
	b.Run("routed", func(b *testing.B) {
		urls := make([]string, 3)
		for i := range urls {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			hs := &http.Server{Handler: newBackend().Handler()}
			go hs.Serve(ln) //nolint:errcheck
			defer hs.Close()
			urls[i] = "http://" + ln.Addr().String()
		}
		rt, err := shard.New(shard.Config{Backends: urls})
		if err != nil {
			b.Fatal(err)
		}
		defer rt.Close()
		drive(b, rt.Handler())
	})
}

// BenchmarkSliceLength ablates the interpreter's time-slice length (the
// DefaultSliceOps design choice): longer slices amortize scheduling but
// coarsen interleaving.
func BenchmarkSliceLength(b *testing.B) {
	build := func() *interp.Machine {
		p := blocks.NewProject("slice")
		p.Globals["n"] = value.Number(0)
		for s := 0; s < 4; s++ {
			sp := p.AddSprite(blocks.NewSprite(fmt.Sprintf("S%d", s)))
			sp.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
				blocks.Repeat(blocks.Num(200), blocks.Body(
					blocks.ChangeVar("n", blocks.Num(1)))),
			))
		}
		return interp.NewMachine(p, nil)
	}
	for _, slice := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("sliceOps=%d", slice), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				m := build()
				m.SliceOps = slice
				m.GreenFlag()
				if err := m.Run(0); err != nil {
					b.Fatal(err)
				}
				rounds = m.Round()
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkInterpreterThroughput measures raw evaluator speed: block
// operations per second on a tight counting loop.
func BenchmarkInterpreterThroughput(b *testing.B) {
	script := blocks.NewScript(
		blocks.DeclareLocal("n"),
		blocks.SetVar("n", blocks.Num(0)),
		blocks.Repeat(blocks.Num(1000), blocks.Body(
			blocks.ChangeVar("n", blocks.Num(1)))),
		blocks.Report(blocks.Var("n")),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := interp.NewMachine(blocks.NewProject("tp"), nil)
		v, err := m.RunScript(script)
		if err != nil {
			b.Fatal(err)
		}
		if v.String() != "1000" {
			b.Fatalf("loop result %s", v)
		}
	}
}

// BenchmarkMapReduceEngine scales the engine across input sizes and worker
// counts. The stock rows run the climate computation as the registered Go
// kernels; the ring-column rows run it as the Figure 13 block rings,
// compiled to the kernels the mapReduce block uses, on the same float
// input.
func BenchmarkMapReduceEngine(b *testing.B) {
	mapRing := &blocks.Ring{Body: blocks.Quotient(
		blocks.Product(blocks.Num(5), blocks.Difference(blocks.Empty(), blocks.Num(32))),
		blocks.Num(9))}
	reduceRing := &blocks.Ring{Body: blocks.Quotient(
		blocks.Combine(blocks.Empty(), blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))),
		blocks.LengthOf(blocks.Empty()))}
	rm, rr, cols := core.MapReduceKernels(mapRing, reduceRing)
	for _, n := range []int{100, 10000} {
		in := value.Range(1, float64(n), 1)
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := mapreduce.Run(in, mapreduce.FahrenheitToCelsius,
						mapreduce.AvgReduce, mapreduce.Config{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("ring-column/n=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := mapreduce.Run(in, rm, rr,
						mapreduce.Config{Workers: w, Columns: cols}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
