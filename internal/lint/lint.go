// Package lint statically checks block projects before they run — the
// guard rails a beginner-facing environment needs. Snap! itself reports
// most mistakes only when a script reaches them (the red halo); for a
// curriculum where "every 50 minutes a new set of 24-25" students starts
// from scratch (§5), catching the common failures up front matters:
//
//   - references to variables no scope declares
//   - broadcasts of messages no hat listens for
//   - calls to undefined custom blocks, or with the wrong input count
//   - blocks whose opcode the runtime does not implement, or with the
//     wrong number of inputs
//   - cloning sprites that do not exist
//   - variables captured inside a worker-bound ring (parallelMap,
//     mapReduce, ...): closures do not ship to workers (§4, Listing 2
//     rebuilds the function from source), so those reads fail at run time
package lint

import (
	"fmt"

	"repro/internal/blocks"
	"repro/internal/interp"
)

// Severity grades a finding.
type Severity int

// The severities.
const (
	Warning Severity = iota
	Error
)

// String names the severity.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Finding is one diagnostic.
type Finding struct {
	Severity Severity
	// Sprite names the sprite owning the script ("" for project-level).
	Sprite string
	// Code classifies the finding (undefined-variable, unknown-message,
	// bad-arity, unknown-block, undefined-custom, worker-capture,
	// unknown-clone-target).
	Code string
	// Where is the offending block's spelling.
	Where string
	// Message explains the problem.
	Message string
}

// String renders "severity [code] sprite: message".
func (f Finding) String() string {
	sprite := f.Sprite
	if sprite == "" {
		sprite = "project"
	}
	return fmt.Sprintf("%s [%s] %s: %s", f.Severity, f.Code, sprite, f.Message)
}

// arities maps the opcodes outside interp.PureOps (which declares its own
// arities) to their declared input count. Negative values mark variadic
// opcodes, encoded as -(min+1): -1 means "any number", -2 means "at least
// one".
var arities = map[string]int{
	"reportRandom": 2,
	"doSetVar":     2, "doChangeVar": 2, "doDeclareVariables": -2,
	"doIf": 2, "doIfElse": 3, "doRepeat": 2, "doForever": 1,
	"doUntil": 2, "doFor": 4, "doWait": 1, "doWarp": 1,
	"doReport": 1, "doStopThis": 0,
	"reportMap": 2, "reportKeep": 2, "reportCombine": 2, "doForEach": 3,
	"reportParallelMap": 3, "doParallelForEach": 5, "reportMapReduce": 3,
	"reportParallelKeep": 3, "reportParallelCombine": 3,
	"evaluate": -2, "doRun": -2, "evaluateCustomBlock": -2,
	"doBroadcast": 1, "doBroadcastAndWait": 1,
	"createClone": 1, "removeClone": 0,
	"forward": 1, "turn": 1, "turnLeft": 1, "gotoXY": 2,
	"bubble": 1, "doThink": 1, "getTimer": 0, "doResetTimer": 0,
	"reportMyName":   0,
	"reportReadFile": 1, "reportFileLines": 1,
	"doWriteFile": 2, "doAppendToFile": 2,
	"snapWorkerLoop": 0,
}

// arity reports an opcode's declared input count: exact, or the minimum
// when variadic.
func arity(op string) (n int, variadic, ok bool) {
	if i, ok := interp.PureOpIndex(op); ok {
		return interp.PureOps[i].Arity, interp.PureOps[i].Variadic, true
	}
	want, ok := arities[op]
	if want < 0 {
		return -want - 1, true, ok
	}
	return want, false, ok
}

// workerRingOps maps opcodes to the indices of ring inputs that ship to
// workers (where closures are stripped).
var workerRingOps = map[string][]int{
	"reportParallelMap":     {0},
	"reportParallelKeep":    {0},
	"reportParallelCombine": {1},
	"reportMapReduce":       {0, 1},
}

// workerUnavailableOps maps opcodes that fail at run time when executed on
// a worker to the resource they need. Workers are share-nothing: no stage,
// no sprites, no file system, no custom-block table — the runtime raises
// "not available inside a web worker" when a shipped ring reaches one of
// these; the linter catches it statically. (parallelForEach bodies are NOT
// worker-bound — they run on stage clones under the scheduler — so only
// the rings of workerRingOps are checked.)
var workerUnavailableOps = map[string]string{
	"forward": "the stage", "turn": "the stage", "turnLeft": "the stage",
	"gotoXY": "the stage", "bubble": "the stage", "doThink": "the stage",
	"getTimer": "the stage", "doResetTimer": "the stage",
	"reportMyName": "the stage", "createClone": "the stage",
	"removeClone": "the stage", "doBroadcast": "the stage",
	"doBroadcastAndWait": "the stage",
	"reportReadFile":     "files", "reportFileLines": "files",
	"doWriteFile": "files", "doAppendToFile": "files",
	"evaluateCustomBlock": "custom blocks",
}

// checkWorkerAvailable flags a block that needs a resource workers do not
// have, inside a ring that ships to workers.
func (l *linter) checkWorkerAvailable(sp *blocks.Sprite, b *blocks.Block) {
	if what, ok := workerUnavailableOps[b.Op]; ok {
		l.report(sp, Warning, "worker-unavailable", b,
			"%q needs %s, which is not available inside a web worker; this block will fail at run time", b.Op, what)
	}
}

// Project checks a whole project.
func Project(p *blocks.Project) []Finding {
	l := &linter{project: p, messages: map[string]bool{}}
	// Collect the hats listened for, for the unknown-message check.
	for _, sp := range p.Sprites {
		for _, hs := range sp.Scripts {
			if hs.Hat == blocks.HatBroadcast {
				l.messages[hs.Arg] = true
			}
		}
	}
	for _, sp := range p.Sprites {
		for _, hs := range sp.Scripts {
			scope := l.spriteScope(sp)
			l.script(sp, hs.Script, scope, false)
		}
		for _, cb := range sp.Customs {
			l.custom(sp, cb)
		}
	}
	for _, cb := range p.Customs {
		l.custom(nil, cb)
	}
	return l.findings
}

type linter struct {
	project  *blocks.Project
	messages map[string]bool
	findings []Finding
}

func (l *linter) report(sp *blocks.Sprite, sev Severity, code string, where blocks.Node, format string, args ...any) {
	name := ""
	if sp != nil {
		name = sp.Name
	}
	w := ""
	if where != nil {
		w = where.Describe()
	}
	l.findings = append(l.findings, Finding{
		Severity: sev, Sprite: name, Code: code, Where: w,
		Message: fmt.Sprintf(format, args...),
	})
}

// scope is the set of visible variable names.
type scope map[string]bool

func (s scope) with(names ...string) scope {
	out := make(scope, len(s)+len(names))
	for n := range s {
		out[n] = true
	}
	for _, n := range names {
		out[n] = true
	}
	return out
}

func (l *linter) spriteScope(sp *blocks.Sprite) scope {
	s := scope{}
	for name := range l.project.Globals {
		s[name] = true
	}
	if sp != nil {
		for name := range sp.Variables {
			s[name] = true
		}
	}
	return s
}

func (l *linter) custom(sp *blocks.Sprite, cb *blocks.CustomBlock) {
	s := l.spriteScope(sp).with(cb.Params...)
	l.script(sp, cb.Body, s, false)
}

// script walks a script in order, extending the scope at declarations.
// inWorker marks ring bodies that will execute on a worker with the
// environment stripped.
func (l *linter) script(sp *blocks.Sprite, s *blocks.Script, sc scope, inWorker bool) scope {
	if s == nil {
		return sc
	}
	for _, b := range s.Blocks {
		sc = l.block(sp, b, sc, inWorker)
	}
	return sc
}

// literalName extracts a name from a literal-text input.
func literalName(n blocks.Node) (string, bool) {
	if lit, ok := n.(blocks.Literal); ok && lit.Val != nil {
		return lit.Val.String(), true
	}
	return "", false
}

func (l *linter) block(sp *blocks.Sprite, b *blocks.Block, sc scope, inWorker bool) scope {
	// Opcode and arity.
	if !interp.HasPrimitive(b.Op) {
		l.report(sp, Error, "unknown-block", b, "no implementation for block %q", b.Op)
		return sc
	}
	if want, variadic, ok := arity(b.Op); ok {
		got := len(b.Inputs)
		if !variadic && got != want {
			l.report(sp, Error, "bad-arity", b, "%s takes %d inputs, has %d", b.Op, want, got)
		} else if variadic && got < want {
			l.report(sp, Error, "bad-arity", b, "%s takes at least %d inputs, has %d", b.Op, want, got)
		}
	}
	if inWorker {
		// Shipped command-ring scripts flow through here with inWorker
		// set; reporter-ring bodies take the checkWorkerBody path.
		l.checkWorkerAvailable(sp, b)
	}

	// Opcode-specific checks and scope effects.
	switch b.Op {
	case "doDeclareVariables":
		var names []string
		for _, in := range b.Inputs {
			if name, ok := literalName(in); ok {
				names = append(names, name)
			}
		}
		return sc.with(names...)
	case "doSetVar", "doChangeVar":
		if name, ok := literalName(b.Input(0)); ok && !sc[name] {
			l.report(sp, Error, "undefined-variable", b,
				"variable %q is not declared in any visible scope", name)
		}
		l.inputs(sp, b, sc, inWorker, 1)
		return sc
	case "doFor", "doForEach":
		name, _ := literalName(b.Input(0))
		l.inputsExcept(sp, b, sc, inWorker, map[int]scope{arityBodyIndex(b.Op): sc.with(name)}, 0)
		return sc
	case "doParallelForEach":
		name, _ := literalName(b.Input(0))
		// The body runs on stage clones (full closure), not workers.
		l.checkNode(sp, b.Input(1), sc, inWorker)
		l.checkNode(sp, b.Input(2), sc, inWorker)
		l.bodyNode(sp, b.Input(3), sc.with(name), inWorker)
		return sc
	case "doBroadcast", "doBroadcastAndWait":
		if msg, ok := literalName(b.Input(0)); ok && !l.messages[msg] {
			l.report(sp, Warning, "unknown-message", b,
				"no script listens for message %q", msg)
		}
		l.inputs(sp, b, sc, inWorker, 1)
		return sc
	case "createClone":
		if name, ok := literalName(b.Input(0)); ok && name != "myself" && name != "" {
			if l.project.Sprite(name) == nil {
				l.report(sp, Error, "unknown-clone-target", b,
					"no sprite named %q to clone", name)
			}
		}
		return sc
	case "evaluateCustomBlock":
		name, ok := literalName(b.Input(0))
		if !ok {
			l.inputs(sp, b, sc, inWorker, 0)
			return sc
		}
		cb := l.project.LookupCustom(sp, name)
		if cb == nil {
			l.report(sp, Error, "undefined-custom", b, "undefined custom block %q", name)
		} else if got := len(b.Inputs) - 1; got != len(cb.Params) {
			l.report(sp, Error, "bad-arity", b,
				"custom block %q takes %d inputs, has %d", name, len(cb.Params), got)
		}
		l.inputs(sp, b, sc, inWorker, 1)
		return sc
	}

	if ringIdxs, ok := workerRingOps[b.Op]; ok {
		workerSet := map[int]bool{}
		for _, i := range ringIdxs {
			workerSet[i] = true
		}
		for i := range b.Inputs {
			l.checkNodeWorker(sp, b.Input(i), sc, inWorker || workerSet[i], workerSet[i])
		}
		return sc
	}

	l.inputs(sp, b, sc, inWorker, 0)
	return sc
}

// arityBodyIndex says which input of a loop opcode is the body slot.
func arityBodyIndex(op string) int {
	if op == "doFor" {
		return 3
	}
	return 2 // doForEach
}

// inputs checks inputs from index `from` onward under the current scope.
func (l *linter) inputs(sp *blocks.Sprite, b *blocks.Block, sc scope, inWorker bool, from int) {
	for i := from; i < len(b.Inputs); i++ {
		l.checkNode(sp, b.Input(i), sc, inWorker)
	}
}

// inputsExcept checks inputs with per-index scope overrides.
func (l *linter) inputsExcept(sp *blocks.Sprite, b *blocks.Block, sc scope, inWorker bool, overrides map[int]scope, skip int) {
	for i := skip; i < len(b.Inputs); i++ {
		use := sc
		if o, ok := overrides[i]; ok {
			use = o
		}
		l.checkNode(sp, b.Input(i), use, inWorker)
	}
}

func (l *linter) bodyNode(sp *blocks.Sprite, n blocks.Node, sc scope, inWorker bool) {
	switch x := n.(type) {
	case blocks.ScriptNode:
		l.script(sp, x.Script, sc, inWorker)
	case blocks.RingNode:
		if s, ok := x.Body.(*blocks.Script); ok {
			l.script(sp, s, sc.with(x.Params...), inWorker)
			return
		}
		l.checkNode(sp, n, sc, inWorker)
	default:
		l.checkNode(sp, n, sc, inWorker)
	}
}

func (l *linter) checkNode(sp *blocks.Sprite, n blocks.Node, sc scope, inWorker bool) {
	l.checkNodeWorker(sp, n, sc, inWorker, false)
}

// checkNodeWorker walks an input node. enteringWorker marks a ring that is
// about to be shipped: inside it, free variables are errors because the
// environment does not transfer.
func (l *linter) checkNodeWorker(sp *blocks.Sprite, n blocks.Node, sc scope, inWorker, enteringWorker bool) {
	switch x := n.(type) {
	case blocks.VarGet:
		if !sc[x.Name] {
			if inWorker {
				l.report(sp, Error, "worker-capture", x,
					"variable %q is read inside a worker-bound ring; closures do not ship to workers — pass it as a ring parameter", x.Name)
				return
			}
			l.report(sp, Error, "undefined-variable", x,
				"variable %q is not declared in any visible scope", x.Name)
		}
	case *blocks.Block:
		l.block(sp, x, sc, inWorker)
	case blocks.RingNode:
		inner := sc.with(x.Params...)
		useWorker := inWorker || enteringWorker
		switch body := x.Body.(type) {
		case *blocks.Script:
			if enteringWorker {
				// A shipped command ring sees only its parameters
				// and its own declarations.
				inner = scope{}.with(x.Params...)
			}
			l.script(sp, body, inner, useWorker)
		case blocks.Node:
			// Ring params shield their names even in workers: track
			// by removing them from the "free" condition. Inside a
			// worker, params are the ONLY visible names.
			if useWorker {
				l.checkWorkerBody(sp, body, x.Params)
				return
			}
			l.checkNodeWorker(sp, body, inner, false, false)
		}
	case blocks.ScriptNode:
		l.script(sp, x.Script, sc, inWorker)
	}
}

// collectDeclared gathers names declared by doDeclareVariables and loop
// binders anywhere in a subtree — visible inside a shipped ring body even
// though the outer environment is not.
func collectDeclared(n blocks.Node, into []string) []string {
	switch x := n.(type) {
	case *blocks.Block:
		switch x.Op {
		case "doDeclareVariables":
			for _, in := range x.Inputs {
				if name, ok := literalName(in); ok {
					into = append(into, name)
				}
			}
		case "doFor", "doForEach", "doParallelForEach":
			if name, ok := literalName(x.Input(0)); ok {
				into = append(into, name)
			}
		}
		for i := range x.Inputs {
			into = collectDeclared(x.Input(i), into)
		}
	case blocks.ScriptNode:
		for _, blk := range x.Script.Blocks {
			into = collectDeclared(blk, into)
		}
	case blocks.RingNode:
		if s, ok := x.Body.(*blocks.Script); ok {
			for _, blk := range s.Blocks {
				into = collectDeclared(blk, into)
			}
		} else if b, ok := x.Body.(blocks.Node); ok {
			into = collectDeclared(b, into)
		}
	}
	return into
}

// checkWorkerBody walks a shipped ring body where only the ring's own
// parameters (and names the body itself declares) are visible.
func (l *linter) checkWorkerBody(sp *blocks.Sprite, n blocks.Node, params []string) {
	params = collectDeclared(n, append([]string{}, params...))
	visible := scope{}.with(params...)
	switch x := n.(type) {
	case blocks.VarGet:
		if !visible[x.Name] {
			l.report(sp, Error, "worker-capture", x,
				"variable %q is read inside a worker-bound ring; closures do not ship to workers — pass it as a ring parameter", x.Name)
		}
	case *blocks.Block:
		l.checkWorkerAvailable(sp, x)
		for i := range x.Inputs {
			l.checkWorkerBody(sp, x.Input(i), params)
		}
	case blocks.RingNode:
		inner := append(append([]string{}, params...), x.Params...)
		switch body := x.Body.(type) {
		case *blocks.Script:
			for _, blk := range body.Blocks {
				l.checkWorkerBody(sp, blk, inner)
			}
		case blocks.Node:
			l.checkWorkerBody(sp, body, inner)
		}
	case blocks.ScriptNode:
		for _, blk := range x.Script.Blocks {
			l.checkWorkerBody(sp, blk, params)
		}
	}
}
