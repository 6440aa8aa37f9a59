package parse

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/vclock"
	"repro/internal/xmlio"
)

// concessionText is the full concession stand of Figures 7–9, written in
// the textual project language.
const concessionText = `
(project "concession-text"
  (global cups (list "Cup1" "Cup2" "Cup3"))
  (sprite "Pitcher"
    (at -150 100)
    (when green-flag (do
      (resettimer)
      (parallelforeach cup $cups _ (do
        (wait 3)
        (broadcast $cup))))))
  (sprite "Cup1" (when (receive "Cup1") (do (say "full!"))))
  (sprite "Cup2" (when (receive "Cup2") (do (say "full!"))))
  (sprite "Cup3" (when (receive "Cup3") (do (say "full!")))))
`

func TestProjectConcessionRunsAt3Timesteps(t *testing.T) {
	p, err := Project(concessionText)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(p, vclock.NewPaperInterference())
	m.GreenFlag()
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Stage.Timer.Elapsed(); got != 3 {
		t.Errorf("textual concession stand = %d timesteps, want 3", got)
	}
	for _, cup := range []string{"Cup1", "Cup2", "Cup3"} {
		if m.Stage.Actor(cup).Saying != "full!" {
			t.Errorf("%s not filled", cup)
		}
	}
}

func TestProjectRoundTripsThroughXML(t *testing.T) {
	p, err := Project(concessionText)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := xmlio.EncodeProject(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := xmlio.DecodeProject(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(p2, vclock.NewPaperInterference())
	m.GreenFlag()
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Stage.Timer.Elapsed(); got != 3 {
		t.Errorf("text → XML → machine = %d timesteps, want 3", got)
	}
}

func TestProjectWithDefineAndLocalsAndKeys(t *testing.T) {
	src := `
(project "features"
  (global score 0)
  (define (double n) reporter (do (report (+ $n $n))))
  (sprite "Player"
    (at 10 20)
    (local lives 3)
    (when green-flag (do (set score (call (lambda (x) (+ $x $x)) 21))))
    (when (key "space") (do (change score 1)))
    (when clone-start (do (removeclone)))))
`
	p, err := Project(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Customs["double"] == nil || !p.Customs["double"].IsReporter {
		t.Error("custom block lost")
	}
	sp := p.Sprite("Player")
	if sp == nil || sp.X != 10 || sp.Y != 20 {
		t.Fatal("sprite geometry lost")
	}
	if sp.Variables["lives"].String() != "3" {
		t.Error("local variable lost")
	}
	m := interp.NewMachine(p, nil)
	m.GreenFlag()
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	score, _ := m.GlobalFrame().Get("score")
	if score.String() != "42" {
		t.Errorf("score = %s", score)
	}
	m.PressKey("space")
	m.Run(0)
	score, _ = m.GlobalFrame().Get("score")
	if score.String() != "43" {
		t.Errorf("score after key = %s", score)
	}
}

// projectErrors pins Project's error for each row, byte for byte.
var projectErrors = []struct{ src, want string }{
	{``, "expected exactly one (project ...) form, got 0 forms"},
	// The head is printed as its source text.
	{`(+ 1 2)`, "expected (project ...), got +"},
	{`((project) "x")`, "expected (project ...), got (project)"},
	{`(project)`, `expected (project "name" ...)`},
	{`(project "x" (zorp))`, `1:15: unknown project form "zorp"`},
	{`(project "x" 5)`, "1:14: project bodies are (global ...), (define ...), or (sprite ...) forms"},
	{`(project "x" (global))`, "1:14: global takes a name and an optional initial value"},
	{`(project "x" (global "quoted" 1))`, "1:22: global name must be a symbol"},
	{`(project "x" (global g (+ 1 2)))`, "1:24: globals take constants or (list ...) initial values"},
	{`(project "x" (global g (numbers 1 3)))`, "1:24: globals take constants or (list ...) initial values"},
	{`(project "x" (sprite))`, "1:14: sprite needs a name"},
	{`(project "x" (sprite "S" (zorp)))`, `1:27: unknown sprite form "zorp"`},
	{`(project "x" (sprite "S" (at 1)))`, "1:26: at takes x and y"},
	{`(project "x" (sprite "S" (at "a" "b")))`, "1:26: at takes numeric constants"},
	{`(project "x" (sprite "S" (when bogus (do))))`, `1:32: unknown hat "bogus" (green-flag, clone-start, (key ...), (receive ...))`},
	{`(project "x" (sprite "S" (when (key) (do))))`, "1:32: hat forms take one argument"},
	{`(project "x" (sprite "S" (when (zorp "a") (do))))`, `1:33: unknown hat form "zorp"`},
	{`(project "x" (sprite "S" (when green-flag (+ 1 2))))`, "1:43: when body must be a (do ...) form"},
	{`(project "x" (define (f) reporter 5))`, "1:35: define body must be a (do ...) form"},
	{`(project "x" (define (f) maybe (do)))`, "1:26: define kind must be reporter or command"},
	{`(project "x" (define f reporter (do)))`, "1:22: define needs a (name params...) signature"},
	{`(project "x") (project "y")`, "expected exactly one (project ...) form, got 2 forms"},
	{`("project" "x" (zorp))`, `1:17: unknown project form "zorp"`},
	{"(project \"x\" (sprite \"Sé\" (zörp)))", `1:28: unknown sprite form "zörp"`},
	{"(project \"x\"\u00a0(zorp))", `1:15: unknown project form "zorp"`},
	{"(project \"x\" (\"a\xffb\"))", "1:15: unknown project form \"a\uFFFDb\""},
	{`(project "x" (sprite "S" (when (receive "m\"") (do (zorp)))))`, `1:53: unknown operator "zorp"`},
	{`(project "x" (global g) ; no newline`, "1:1: unclosed parenthesis"},
	{strings.Repeat("(", maxNesting+1), "1:10001: forms nested deeper than 10000"},
}

func TestProjectErrors(t *testing.T) {
	for _, c := range projectErrors {
		if _, err := Project(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Project(%.40q) error = %v, want %q", c.src, err, c.want)
		}
	}
}
