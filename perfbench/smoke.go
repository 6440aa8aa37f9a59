package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"
)

// declared is a metric as BENCHMARK.json names it.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the smoke check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

var errSmoke = errors.New("smoke check failed")

// smokeSeconds is the measured phase of each smoke run.
const smokeSeconds = 2 * time.Second

// runSmoke runs every workload of workloads.json briefly with tracing off
// and on, prints every metric, and fails unless each run emits exactly the
// metric names and units BENCHMARK.json declares, every workload and
// per-layer metric there has an entry in workloads.json, and no request
// failed.
func runSmoke(cfg *config, binDir, outDir string, seed int64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var problems []string
	for _, pl := range bf.PerLayer {
		if _, ok := cfg.Targets[pl.Name]; !ok {
			problems = append(problems, "no per_layer_targets entry for "+pl.Name)
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := cfg.Workloads[w.Name]; !ok {
			problems = append(problems, "workload missing from workloads.json: "+w.Name)
		}
	}
	names := make([]string, 0, len(cfg.Workloads))
	for name := range cfg.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := cfg.Workloads[name]
		for trace, want := range [][]declared{bf.EndToEnd, bf.PerLayer} {
			var res *result
			if trace == 1 {
				res, err = runTraced(name, spec, seed, outDir)
			} else {
				res, err = runE2E(name, spec, seed, smokeSeconds, binDir)
			}
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", name, trace, err)
			}
			fmt.Printf("== %s trace=%d: attempted %d, failed %d, fail_ratio %.4f\n",
				name, trace, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
			problems = append(problems, compare(name, trace, res, want)...)
		}
	}
	for _, p := range problems {
		fmt.Println("SMOKE:", p)
	}
	if len(problems) > 0 {
		return errSmoke
	}
	fmt.Println("smoke ok")
	return nil
}

// compare prints a run's metrics and lists every way they differ from the
// declared ones.
func compare(workload string, trace int, res *result, want []declared) []string {
	var problems []string
	prefix := fmt.Sprintf("%s trace=%d: ", workload, trace)
	if res.Failed > 0 || !res.Correct {
		problems = append(problems, prefix+fmt.Sprintf("%d of %d requests failed (correct=%v)", res.Failed, res.Attempted, res.Correct))
	}
	isDeclared := map[string]bool{}
	for _, m := range want {
		isDeclared[m.Name] = true
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			problems = append(problems, prefix+"missing metric "+m.Name)
		case got.Unit != m.Unit:
			problems = append(problems, prefix+fmt.Sprintf("%s has unit %q, declared %q", m.Name, got.Unit, m.Unit))
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
		if !isDeclared[n] {
			problems = append(problems, prefix+"undeclared metric "+n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return problems
}
