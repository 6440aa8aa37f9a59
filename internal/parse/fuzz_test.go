package parse

import (
	"strings"
	"testing"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/lint"
)

// The seed corpora of FuzzExpr, FuzzProject and FuzzScript; the
// differential FuzzReaderMatchesReference starts from all three.
var (
	exprSeeds = []string{
		"(+ 1 2)",
		"(map (ring (* _ 10)) (list 3 7 8))",
		"(parallelmap (ring (* _ 10)) (numbers 1 9) 4)",
		`(join "a" "b")`,
		"(lambda (x) (+ $x 1))",
		"(do (set x 1) (change x 2))",
		"((((((",
		")",
		"$",
		`"unterminated`,
		"(ring)",
		"; just a comment",
		"(if true (do (say \"hi\")))",
	}
	// validProjectSeeds are the well-formed projects among projectSeeds
	// (TestValidProjectSeedsParse holds them to it); the rest are
	// malformed on purpose.
	validProjectSeeds = []string{
		`(project "p" (sprite "S" (when green-flag (do (forward 1)))))`,
		`(project "p" (global n 3) (sprite "S" (at 10 20) (local x 0)
		   (when green-flag (do (change x 1)))))`,
		`(project "p" (define (double n) reporter (do (report (* $n 2))))
		   (sprite "S" (when green-flag (do (say (call (lambda (x) (* $x 2)) 21))))))`,
		`(project "p" (sprite "A") (sprite "B" (when (key "space") (do (forward 1)))))`,
		`(project "p" (sprite "S" (when green-flag (do
		   (report (parallelmap (lambda (x) (* $x 2)) (numbers 1 9) 4))))))`,
	}
	projectSeeds = append(validProjectSeeds,
		`(project`,
		`(project "p" (sprite))`,
		`(sprite "loose")`,
		`(project "p" (global))`,
		strings.Repeat("(", 500)+strings.Repeat(")", 500),
		"; only a comment",
	)
	scriptSeeds = []string{
		"(set x 1) (change x 2) (report $x)",
		"(declare a b) (set a (list)) (add 1 $a)",
		"(repeat 3 (do (forward 1)))",
	}
)

// FuzzExpr feeds arbitrary text to the parser: it must never panic, and
// anything it accepts must lower to a well-formed node that the evaluator
// either runs or rejects cleanly (no panics downstream either).
func FuzzExpr(f *testing.F) {
	for _, seed := range exprSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		node, err := Expr(src)
		if err != nil {
			return
		}
		b, ok := node.(*blocks.Block)
		if !ok {
			return
		}
		if b.Describe() == "" {
			t.Errorf("accepted input %q produced an indescribable block", src)
		}
		// Anything parsed must evaluate or fail cleanly within a small
		// budget (cap with a round limit — parsed programs may loop).
		m := interp.NewMachine(blocks.NewProject("fuzz"), nil)
		m.SliceOps = 200
		sp := blocks.NewSprite("S")
		m.SpawnScript(sp, m.Stage.AddActor("S", 0, 0), blocks.NewScript(b))
		_ = m.Run(50)
		m.StopAll()
		m.Step()
	})
}

// FuzzProject feeds arbitrary text to the whole-project reader — the
// entry point of the network ingestion path (POST /v1/run). It must never
// panic, and accepted projects must survive linting and a bounded run.
func FuzzProject(f *testing.F) {
	for _, seed := range projectSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Project(src)
		if err != nil {
			return
		}
		lint.Project(p)
		m := interp.NewMachine(p, nil)
		m.SliceOps = 200
		m.GreenFlag()
		_ = m.Run(50)
		m.StopAll()
		m.Step()
	})
}

// TestValidProjectSeedsParse pins that FuzzProject starts from the
// well-formed projects it means to: a seed the reader rejects leaves the
// fuzzer without the construct it was written for.
func TestValidProjectSeedsParse(t *testing.T) {
	for _, src := range validProjectSeeds {
		if _, err := Project(src); err != nil {
			t.Errorf("seed %q: %v", src, err)
		}
	}
}

// TestDeepNestingIsAnErrorNotACrash pins the maxNesting guard: megabytes
// of open parens used to exhaust the goroutine stack (fatal), now they
// parse-error.
func TestDeepNestingIsAnErrorNotACrash(t *testing.T) {
	for _, src := range []string{
		strings.Repeat("(", 1_000_000),
		strings.Repeat("(list ", 200_000) + "1" + strings.Repeat(")", 200_000),
	} {
		if _, err := Expr(src); err == nil {
			t.Error("deeply nested input parsed without error")
		} else if !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("want nesting-depth error, got: %v", err)
		}
		if _, err := Project(src); err == nil {
			t.Error("deeply nested project parsed without error")
		}
	}
	// The cap must not reject real programs of reasonable depth.
	ok := strings.Repeat("(join \"a\" ", 500) + "\"b\"" + strings.Repeat(")", 500)
	if _, err := Expr(ok); err != nil {
		t.Errorf("500-deep expression should parse: %v", err)
	}
}

// FuzzScript does the same for command sequences.
func FuzzScript(f *testing.F) {
	for _, seed := range scriptSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		script, err := Script(src)
		if err != nil {
			return
		}
		m := interp.NewMachine(blocks.NewProject("fuzz"), nil)
		m.SliceOps = 200
		sp := blocks.NewSprite("S")
		m.SpawnScript(sp, m.Stage.AddActor("S", 0, 0), script)
		_ = m.Run(50)
		m.StopAll()
		m.Step()
	})
}
