package evo

import (
	"strings"
	"testing"

	"repro/internal/evo/gen"
	"repro/internal/evo/oracle"
	"repro/internal/parse"
	"repro/internal/vm"
)

// TestEngineCleanRun soaks a small deterministic population through all
// four tiers: on a healthy engine every program must agree everywhere,
// including the cache-replay serving run and the concurrent session
// workers.
func TestEngineCleanRun(t *testing.T) {
	stats, divs := Run(Config{
		Seed:        1,
		Pop:         12,
		Generations: 3,
		Sessions:    2,
		Log:         t.Logf,
	})
	for _, d := range divs {
		t.Errorf("divergence (%s, %d blocks): %s", d.Name, d.Blocks, d.Detail)
	}
	if stats.Programs < 36 {
		t.Fatalf("expected >=36 programs through the oracle, got %d", stats.Programs)
	}
	if stats.Generations != 3 {
		t.Fatalf("expected 3 generations, got %d", stats.Generations)
	}
	t.Logf("stats: %+v", stats)
}

// TestEnginePinnedOnly runs just the pinned mapReduce parity edges (the
// empty input, single item, single key, and both threshold sides) through
// the full four-tier oracle.
func TestEnginePinnedOnly(t *testing.T) {
	e := newEngine(Config{Seed: 7}.withDefaults())
	defer e.close()
	for _, p := range gen.PinnedScripts() {
		if _, d := e.evalScript(p.Script); d != "" {
			t.Errorf("pinned %s diverged: %s", p.Name, d)
		}
	}
}

// TestEngineCatchesInjectedVMBug is the acceptance demo: an intentionally
// wrong bytecode op (every lowered Difference silently becomes a Sum) must
// be caught by the differential oracle and shrunk to a minimal reproducer
// of at most 10 blocks.
func TestEngineCatchesInjectedVMBug(t *testing.T) {
	mut, ok := vm.SwapBinaryOps("reportDifference", "reportSum")
	if !ok {
		t.Fatal("SwapBinaryOps refused the difference/sum pair")
	}
	vm.SetProgramMutator(mut)
	defer vm.SetProgramMutator(nil)

	stats, divs := Run(Config{
		Seed:        2,
		Pop:         16,
		Generations: 4,
		Log:         t.Logf,
	})
	if len(divs) == 0 {
		t.Fatalf("injected vm bug survived %d programs undetected", stats.Programs)
	}
	found := false
	for _, d := range divs {
		if d.Name != "" || d.Shrunk == nil {
			continue // pinned scripts have no genome to shrink
		}
		if _, still := e2eDiverges(t, d.Shrunk); !still {
			t.Errorf("shrunk genome no longer diverges: %x", d.Shrunk)
			continue
		}
		t.Logf("shrunk reproducer: %d blocks, %d genome bytes: %s",
			d.Blocks, len(d.Shrunk), firstLine(d.Detail))
		if d.Blocks <= 10 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no divergence shrank to <=10 blocks (got %d divergences)", len(divs))
	}
}

func e2eDiverges(t *testing.T, g gen.Genome) (string, bool) {
	t.Helper()
	tree, _ := oracle.Run(gen.Script(g), false)
	bc, _ := oracle.Run(gen.Script(g), true)
	d := oracle.Diff("tree", tree, "vm", bc)
	return d, d != ""
}

// TestSessionOutcomeStatusMapping pins the serving-tier status contract
// the oracle relies on: only a non-ok status carries an error string.
func TestSessionOutcomeStatusMapping(t *testing.T) {
	e := newEngine(Config{Seed: 3}.withDefaults())
	defer e.close()
	src, err := parse.PrintProject(gen.Project(gen.Seeds()[0]))
	if err != nil {
		t.Fatal(err)
	}
	code, resp := e.post(src)
	if code != 200 {
		t.Fatalf("seed genome rejected by serving tier: HTTP %d %q", code, resp.Error)
	}
	out := sessionOutcome(oracle.Outcome{Value: "x"}, resp)
	if out.Err != "<nil>" {
		t.Fatalf("ok status must map to <nil> error, got %q", out.Err)
	}
}

// TestCorpusRoundTrip writes a divergence and reads it back by address.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := Divergence{Shrunk: gen.Genome{1, 2, 3}, Blocks: 7, Detail: "value mismatch"}
	addr, err := writeCorpus(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("empty corpus address")
	}
	gs, err := CorpusGenomes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 || string(gs[0]) != string(d.Shrunk) {
		t.Fatalf("corpus round trip mismatch: %v", gs)
	}
	if got := strings.TrimSpace(addr); len(got) != 16 {
		t.Fatalf("address should be 16 hex chars, got %q", addr)
	}
}

// TestCorpusMissingDir is the empty-corpus contract the fuzzers rely on.
func TestCorpusMissingDir(t *testing.T) {
	gs, err := CorpusGenomes(t.TempDir() + "/nope")
	if err != nil || gs != nil {
		t.Fatalf("missing dir must read as empty corpus, got %v, %v", gs, err)
	}
}
