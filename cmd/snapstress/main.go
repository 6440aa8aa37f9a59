// Command snapstress soaks the engine with the evolutionary cross-tier
// stress search: evolved block programs run through the tree-walker, the
// bytecode vm with observability on and off, and a live in-process
// snapserved session (twice, for cache-replay identity), with any
// divergence shrunk to a minimal reproducer and persisted to the fuzz
// corpus.
//
// With a fixed -seed the population trajectory is deterministic, which
// is how CI runs it:
//
//	snapstress -seed 1 -duration 60s -min-programs 1000 -corpus internal/evo/corpus
//
// Exit status is 0 only when every program agreed on every tier.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/evo"
)

func main() {
	var cfg evo.Config
	flag.Int64Var(&cfg.Seed, "seed", 1, "deterministic population seed")
	flag.IntVar(&cfg.Pop, "pop", 24, "population size")
	flag.IntVar(&cfg.Generations, "gens", 0, "generation cap (0 = run by -duration)")
	flag.DurationVar(&cfg.Duration, "duration", 30*time.Second, "soak budget")
	flag.IntVar(&cfg.MinPrograms, "min-programs", 0,
		"keep soaking past -duration until this many programs ran all four tiers")
	flag.StringVar(&cfg.CorpusDir, "corpus", "",
		"persist shrunk divergences here as fuzz seeds (empty = don't)")
	flag.IntVar(&cfg.Sessions, "sessions", 2,
		"concurrent serving-tier stress workers replaying vetted survivors")
	quiet := flag.Bool("q", false, "suppress progress lines")
	flag.Parse()

	if !*quiet {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	start := time.Now()
	stats, divs := evo.Run(cfg)
	fmt.Printf("snapstress: %d programs, %d generations, %d session replays (%d rejected), %d divergences in %s\n",
		stats.Programs, stats.Generations, stats.SessionRuns, stats.SessionRejects,
		stats.Divergences, time.Since(start).Round(time.Millisecond))

	for _, d := range divs {
		name := d.Name
		if name == "" {
			name = fmt.Sprintf("genome %x (shrunk %x, %d blocks)", d.Genome, d.Shrunk, d.Blocks)
		}
		if d.Addr != "" {
			name += " @" + d.Addr
		}
		fmt.Printf("DIVERGENCE %s:\n%s\n", name, d.Detail)
	}
	if len(divs) > 0 {
		os.Exit(1)
	}
}
