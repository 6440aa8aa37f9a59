// Package parse reads the textual representation of block programs — the
// complement of the §6 code-mapping feature (§1 notes Snap!'s experimental
// "textual representation of the blocks"). Programs are s-expressions:
//
//	(map (ring (* _ 10)) (list 3 7 8))
//	(do (set sum 0)
//	    (for i 1 10 (do (change sum $i)))
//	    (report $sum))
//
// Tokens: numbers, "strings", true/false, `_` (an empty slot), `$name`
// (read variable name), bare symbols (operators, or names in name
// positions). Special forms: (ring body...), (lambda (params) body...),
// (do commands...). Everything else lowers through the operator table to
// the block constructors of package blocks, so parsed programs are
// indistinguishable from built ones: the interpreter runs them, the code
// generators translate them, xmlio round-trips them.
package parse

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/blocks"
	"repro/internal/value"
)

// --- s-expression reader ---

// nodeKind says what one form of the read tree is.
type nodeKind uint8

const (
	listForm   nodeKind = iota
	symbolForm          // a bare atom
	stringForm          // a quoted string literal
)

// node is one form of the read tree. The reader stores the whole tree in
// one flat array in preorder: a list's items follow it, and size counts
// the list and all its descendants, so its next sibling sits at i+size.
type node struct {
	at, end int32 // byte offsets in the source: first byte, one past the last
	size    int32 // nodes in this subtree, itself included (1 for an atom)
	kind    nodeKind
	// cooked marks an atom whose text differs from its source bytes: a
	// string with an escape, or an atom holding invalid UTF-8, which reads
	// as one U+FFFD per invalid byte. Other atoms' text is sliced out of
	// the source (see text and keep).
	cooked bool
}

// maxNesting bounds s-expression depth. The lowerer recurses over the
// tree, and this parser sits on the network ingestion path: without a
// cap, a few megabytes of "(" exhaust the goroutine stack, which is a
// fatal, unrecoverable crash rather than an error.
const maxNesting = 10_000

// maxSource bounds the source length, so that byte offsets and node
// counts fit the int32 fields that keep a node at 16 bytes.
const maxSource = math.MaxInt32

type reader struct {
	src   string
	nodes []node

	// The slabs of the script being lowered (see slab): its blocks and
	// their inputs are taken from them while they last.
	blocks []blocks.Block
	slots  []blocks.Node
}

// slab makes the slabs for lowering the forms from index from up to end,
// the statements of one script: one allocation for its blocks and one
// for their inputs, instead of two per block. Every list among the forms
// makes at most one block, and every form but a statement or a list's
// head fills at most one input slot. A slab stays alive while any block
// in it does, and the VM memo keeps lowered scripts beyond their
// project, so slabs are made per script: a memo entry keeps its own
// script's blocks, as it would with one allocation per block.
func (r *reader) slab(from, end int) {
	lists := 0
	for j := from; j < end; j++ {
		if r.nodes[j].kind == listForm {
			lists++
		}
	}
	r.blocks = make([]blocks.Block, lists)
	r.slots = make([]blocks.Node, max(end-from-lists-r.span(from, end), 0))
}

// error reports a failure at node i.
func (r *reader) error(i int, format string, args ...any) error {
	return errorAt(r.src, int(r.nodes[i].at), format, args...)
}

// errorAt reports a failure at byte offset at as line:col, where the
// column counts runes (an invalid byte counts as one).
func errorAt(src string, at int, format string, args ...any) error {
	line, col := 1, 1
	for _, c := range src[:at] {
		if c == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

// symbolByte marks the ASCII bytes that continue a symbol: all but
// whitespace (as unicode.IsSpace has it), parentheses and ';'. Bytes at
// or above utf8.RuneSelf are decoded as runes before anything is decided.
var symbolByte = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = !strings.ContainsRune("\t\n\v\f\r ();", rune(c))
	}
	return t
}()

// multiAt decodes the rune starting at src[i], a byte at or above
// utf8.RuneSelf: whether it is whitespace, whether it is an invalid byte
// (which reads as U+FFFD), and its width.
func multiAt(src string, i int) (isSpace, invalid bool, n int) {
	c, n := utf8.DecodeRuneInString(src[i:])
	return unicode.IsSpace(c), c == utf8.RuneError && n == 1, n
}

// readAll reads every top-level form into one flat node array. The whole
// tree is read before anything lowers, so a read error wins over any
// lowering error.
func readAll(src string) (*reader, error) {
	if len(src) > maxSource {
		return nil, fmt.Errorf("the source is %d bytes, more than the %d the reader takes", len(src), maxSource)
	}
	nodes := make([]node, 0, len(src)/3) // dense code runs ~3 bytes a form
	var open []int                       // the lists not yet closed, innermost last
	for i := 0; i < len(src); {
		at := i
		switch c := src[i]; c {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			i++
		case ';': // a comment runs to the end of the line
			nl := strings.IndexByte(src[i:], '\n')
			if nl < 0 {
				nl = len(src) - i
			}
			i += nl
		case '(':
			if len(open) == maxNesting {
				return nil, errorAt(src, at, "forms nested deeper than %d", maxNesting)
			}
			open = append(open, len(nodes))
			nodes = append(nodes, node{at: int32(at), kind: listForm})
			i++
		case ')':
			if len(open) == 0 {
				return nil, errorAt(src, at, "unexpected ')'")
			}
			k := open[len(open)-1]
			open = open[:len(open)-1]
			i++
			nodes[k].end = int32(i)
			nodes[k].size = int32(len(nodes) - k)
		case '"':
			cooked := false
			for i++; i < len(src) && src[i] != '"'; {
				c := src[i]
				if c == '\\' {
					cooked = true
					if i++; i == len(src) {
						break // a backslash at the end leaves the string open
					}
					c = src[i]
				}
				if c < utf8.RuneSelf {
					i++
					continue
				}
				_, bad, n := multiAt(src, i)
				cooked = cooked || bad
				i += n
			}
			if i >= len(src) {
				return nil, errorAt(src, at, "unterminated string")
			}
			i++ // the closing quote
			nodes = append(nodes, node{at: int32(at), end: int32(i), size: 1, kind: stringForm, cooked: cooked})
		default:
			if c >= utf8.RuneSelf {
				if isSpace, _, n := multiAt(src, i); isSpace {
					i += n
					continue
				}
			}
			cooked := false
			for i < len(src) {
				if c := src[i]; c < utf8.RuneSelf {
					if !symbolByte[c] {
						break
					}
					i++
					continue
				}
				isSpace, bad, n := multiAt(src, i)
				if isSpace {
					break
				}
				cooked = cooked || bad
				i += n
			}
			nodes = append(nodes, node{at: int32(at), end: int32(i), size: 1, kind: symbolForm, cooked: cooked})
		}
	}
	if len(open) > 0 {
		return nil, errorAt(src, int(nodes[open[len(open)-1]].at), "unclosed parenthesis")
	}
	return &reader{src: src, nodes: nodes}, nil
}

// next is the index of the form after node i at the same level.
func (r *reader) next(i int) int { return i + int(r.nodes[i].size) }

// count is the number of items in list i.
func (r *reader) count(i int) int { return r.span(i+1, r.next(i)) }

// span is the number of sibling forms from index from up to end.
func (r *reader) span(from, end int) int {
	n := 0
	for j := from; j < end; j = r.next(j) {
		n++
	}
	return n
}

// text is atom i's text: its source bytes (a string without its quotes)
// unless the atom is cooked. It may alias the source; what the AST keeps
// takes keep instead.
func (r *reader) text(i int) string {
	nd := r.nodes[i]
	s := r.src[nd.at:nd.end]
	if nd.kind == stringForm {
		s = s[1 : len(s)-1]
	}
	if !nd.cooked {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for j := 0; j < len(s); {
		c, n := utf8.DecodeRuneInString(s[j:])
		j += n
		if c == '\\' && nd.kind == stringForm {
			esc, n := utf8.DecodeRuneInString(s[j:])
			j += n
			switch esc {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			default:
				c = esc
			}
		}
		b.WriteRune(c)
	}
	return b.String()
}

// keep is atom i's text in a string of its own. A lowered script outlives
// its source (the VM memo keeps it), and should keep only its own text,
// not the whole source through one atom sliced out of it.
func (r *reader) keep(i int) string { return strings.Clone(r.text(i)) }

// --- lowering to blocks ---

// opSpec describes one operator: its arity bounds, and either the
// opcode its arguments become the inputs of, or a builder for operators
// that rework their arguments.
type opSpec struct {
	min, max int // max < 0 means variadic
	op       string
	build    func(args []blocks.Node) (*blocks.Block, error)
}

func simple(op string, arity int) opSpec {
	return opSpec{min: arity, max: arity, op: op}
}

func variadic(op string, min int) opSpec {
	return opSpec{min: min, max: -1, op: op}
}

// nameArg converts an argument in name position (set, for, foreach) back
// to its text.
func nameArg(n blocks.Node) (string, error) {
	switch x := n.(type) {
	case blocks.VarGet:
		return x.Name, nil
	case blocks.Literal:
		if t, ok := x.Val.(value.Text); ok {
			return string(t), nil
		}
	}
	return "", fmt.Errorf("expected a name")
}

func named(op string, arity int) opSpec {
	return opSpec{min: arity, max: arity, build: func(args []blocks.Node) (*blocks.Block, error) {
		name, err := nameArg(args[0])
		if err != nil {
			return nil, err
		}
		out := append([]blocks.Node{blocks.Txt(name)}, args[1:]...)
		return blocks.NewBlock(op, out...), nil
	}}
}

var ops = map[string]opSpec{
	"+":      simple("reportSum", 2),
	"-":      simple("reportDifference", 2),
	"*":      simple("reportProduct", 2),
	"/":      simple("reportQuotient", 2),
	"mod":    simple("reportModulus", 2),
	"round":  simple("reportRound", 1),
	"sqrt":   {min: 1, max: 1, build: monadic("sqrt")},
	"abs":    {min: 1, max: 1, build: monadic("abs")},
	"floor":  {min: 1, max: 1, build: monadic("floor")},
	"random": simple("reportRandom", 2),
	"<":      simple("reportLessThan", 2),
	"=":      simple("reportEquals", 2),
	">":      simple("reportGreaterThan", 2),
	"and":    simple("reportAnd", 2),
	"or":     simple("reportOr", 2),
	"not":    simple("reportNot", 1),
	"join":   variadic("reportJoinWords", 1),
	"letter": simple("reportLetter", 2),
	"split":  simple("reportTextSplit", 2),

	"list":     variadic("reportNewList", 0),
	"numbers":  simple("reportNumbers", 2),
	"item":     simple("reportListItem", 2),
	"length":   simple("reportListLength", 1),
	"contains": simple("reportListContainsItem", 2),
	"add":      simple("doAddToList", 2),
	"delete":   simple("doDeleteFromList", 2),
	"insert":   simple("doInsertInList", 3),
	"replace":  simple("doReplaceInList", 3),

	"set":     named("doSetVar", 2),
	"change":  named("doChangeVar", 2),
	"declare": {min: 1, max: -1, build: buildDeclare},

	"if":      simple("doIf", 2),
	"ifelse":  simple("doIfElse", 3),
	"repeat":  simple("doRepeat", 2),
	"forever": simple("doForever", 1),
	"until":   simple("doUntil", 2),
	"for":     named("doFor", 4),
	"wait":    simple("doWait", 1),
	"report":  simple("doReport", 1),
	"stop":    simple("doStopThis", 0),
	"warp":    simple("doWarp", 1),

	"map":     simple("reportMap", 2),
	"keep":    simple("reportKeep", 2),
	"combine": simple("reportCombine", 2),
	"foreach": named("doForEach", 3),

	"parallelmap":     simple("reportParallelMap", 3),
	"parallelkeep":    simple("reportParallelKeep", 3),
	"parallelcombine": simple("reportParallelCombine", 3),
	"mapreduce":       simple("reportMapReduce", 3),
	"parallelforeach": {min: 4, max: 4, build: buildParallelForEach(true)},
	"seqforeach":      {min: 3, max: 3, build: buildParallelForEach(false)},

	"call": variadic("evaluate", 1),
	"run":  variadic("doRun", 1),

	"broadcast":     simple("doBroadcast", 1),
	"broadcastwait": simple("doBroadcastAndWait", 1),
	"say":           simple("bubble", 1),
	"think":         simple("doThink", 1),
	"forward":       simple("forward", 1),
	"turn":          simple("turn", 1),
	"goto":          simple("gotoXY", 2),
	"timer":         simple("getTimer", 0),
	"resettimer":    simple("doResetTimer", 0),
	"clone":         simple("createClone", 1),
	"removeclone":   simple("removeClone", 0),

	"readfile":   simple("reportReadFile", 1),
	"filelines":  simple("reportFileLines", 1),
	"writefile":  simple("doWriteFile", 2),
	"appendfile": simple("doAppendToFile", 2),
	"turnleft":   simple("turnLeft", 1),
}

func monadic(fn string) func(args []blocks.Node) (*blocks.Block, error) {
	return func(args []blocks.Node) (*blocks.Block, error) {
		return blocks.Monadic(fn, args[0]), nil
	}
}

func buildDeclare(args []blocks.Node) (*blocks.Block, error) {
	ins := make([]blocks.Node, len(args))
	for i, a := range args {
		name, err := nameArg(a)
		if err != nil {
			return nil, fmt.Errorf("declare: %w", err)
		}
		ins[i] = blocks.Txt(name)
	}
	return blocks.NewBlock("doDeclareVariables", ins...), nil
}

func buildParallelForEach(parallel bool) func(args []blocks.Node) (*blocks.Block, error) {
	return func(args []blocks.Node) (*blocks.Block, error) {
		name, err := nameArg(args[0])
		if err != nil {
			return nil, fmt.Errorf("parallelforeach: %w", err)
		}
		if parallel {
			// (parallelforeach item list parallelism body)
			return blocks.NewBlock("doParallelForEach",
				blocks.Txt(name), args[1], args[2], args[3], blocks.BoolLit(true)), nil
		}
		// (seqforeach item list body)
		return blocks.NewBlock("doParallelForEach",
			blocks.Txt(name), args[1], blocks.Empty(), args[2], blocks.BoolLit(false)), nil
	}
}

// lower converts form i into a block input node.
func (r *reader) lower(i int) (blocks.Node, error) {
	if r.nodes[i].kind == listForm {
		return r.lowerList(i)
	}
	return r.lowerAtom(i)
}

// number parses a symbol's text as strconv.ParseFloat does. Up to 15
// plain digits, most numbers in programs, convert exactly without it.
// Text ParseFloat cannot accept skips it too, sparing a bare name the
// allocation of a failed parse: a number starts with a sign, a digit or
// a point, or is inf, infinity or nan in any case.
func number(text string) (float64, bool) {
	digits, n := len(text) <= 15, 0
	for i := 0; digits && i < len(text); i++ {
		d := text[i] - '0'
		digits = d <= 9
		n = n*10 + int(d)
	}
	if digits {
		return float64(n), true
	}
	switch c := text[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.':
	case c|0x20 == 'i' && (len(text) == 3 || len(text) == 8), c|0x20 == 'n' && len(text) == 3:
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(text, 64)
	return f, err == nil
}

func (r *reader) lowerAtom(i int) (blocks.Node, error) {
	if r.nodes[i].kind == stringForm {
		return blocks.Txt(r.keep(i)), nil
	}
	text := r.text(i)
	switch text {
	case "_":
		return blocks.Empty(), nil
	case "true":
		return blocks.BoolLit(true), nil
	case "false":
		return blocks.BoolLit(false), nil
	}
	if text[0] == '$' {
		if len(text) == 1 {
			return nil, r.error(i, "$ needs a variable name")
		}
		return blocks.Var(strings.Clone(text[1:])), nil
	}
	if f, ok := number(text); ok {
		return blocks.Num(f), nil
	}
	// Bare symbols stand for names (variable slots of set/for/foreach);
	// lower as VarGet so nameArg can recover the spelling, and reading
	// them in value position still reads the variable.
	return blocks.Var(strings.Clone(text)), nil
}

func (r *reader) lowerList(l int) (blocks.Node, error) {
	end := r.next(l)
	if end == l+1 {
		return nil, r.error(l, "empty form")
	}
	h := l + 1
	if r.nodes[h].kind != symbolForm {
		return nil, r.error(h, "a form must start with an operator symbol")
	}
	head := r.text(h)
	switch head {
	case "do":
		script, err := r.lowerScript(h+1, end)
		if err != nil {
			return nil, err
		}
		return blocks.ScriptNode{Script: script}, nil
	case "ring":
		if r.count(l) != 2 {
			return nil, r.error(l, "ring takes exactly one body")
		}
		body, err := r.lower(h + 1)
		if err != nil {
			return nil, err
		}
		if sn, ok := body.(blocks.ScriptNode); ok {
			return blocks.RingScript(sn.Script), nil
		}
		return blocks.RingOf(body), nil
	case "lambda":
		if r.count(l) != 3 {
			return nil, r.error(l, "lambda takes a parameter list and one body")
		}
		plist := h + 1
		if r.nodes[plist].kind != listForm {
			return nil, r.error(plist, "lambda parameters must be a list")
		}
		var params []string
		for p := plist + 1; p < r.next(plist); p = r.next(p) {
			if r.nodes[p].kind != symbolForm {
				return nil, r.error(p, "lambda parameter must be a symbol")
			}
			params = append(params, r.keep(p))
		}
		body, err := r.lower(r.next(plist))
		if err != nil {
			return nil, err
		}
		if sn, ok := body.(blocks.ScriptNode); ok {
			return blocks.RingScript(sn.Script, params...), nil
		}
		return blocks.RingOf(body, params...), nil
	}
	spec, ok := ops[head]
	if !ok {
		return nil, r.error(h, "unknown operator %q", head)
	}
	args := r.inputs(r.count(l) - 1)
	for j := h + 1; j < end; j = r.next(j) {
		n, err := r.lower(j)
		if err != nil {
			return nil, err
		}
		args = append(args, n)
	}
	if len(args) < spec.min || (spec.max >= 0 && len(args) > spec.max) {
		if spec.max < 0 {
			return nil, r.error(l, "%s needs at least %d inputs, got %d", head, spec.min, len(args))
		}
		return nil, r.error(l, "%s needs %d inputs, got %d", head, spec.max, len(args))
	}
	if spec.build == nil {
		return r.block(spec.op, args), nil
	}
	b, err := spec.build(args)
	if err != nil {
		return nil, r.error(l, "%s: %v", head, err)
	}
	return b, nil
}

// block returns a new block with the given opcode and inputs, from the
// slab while it lasts.
func (r *reader) block(op string, inputs []blocks.Node) *blocks.Block {
	if len(r.blocks) == 0 {
		return blocks.NewBlock(op, inputs...)
	}
	b := &r.blocks[0]
	r.blocks = r.blocks[1:]
	b.Op, b.Inputs = op, inputs
	return b
}

// inputs returns an empty slice with room for n inputs, from the slab
// while it lasts.
func (r *reader) inputs(n int) []blocks.Node {
	if len(r.slots) < n {
		return make([]blocks.Node, 0, n)
	}
	in := r.slots[:0:n]
	r.slots = r.slots[n:]
	return in
}

// lowerScript lowers the forms from index from up to end, siblings all.
func (r *reader) lowerScript(from, end int) (*blocks.Script, error) {
	script := blocks.NewScript()
	if n := r.span(from, end); n > 0 {
		script.Blocks = make([]*blocks.Block, 0, n)
	}
	for j := from; j < end; j = r.next(j) {
		n, err := r.lower(j)
		if err != nil {
			return nil, err
		}
		b, ok := n.(*blocks.Block)
		if !ok {
			return nil, r.error(j, "scripts contain command blocks, not %T", n)
		}
		script.Append(b)
	}
	return script, nil
}

// Expr parses a single expression (a reporter or command form).
func Expr(src string) (blocks.Node, error) {
	r, err := readAll(src)
	if err != nil {
		return nil, err
	}
	if n := r.span(0, len(r.nodes)); n != 1 {
		return nil, fmt.Errorf("expected exactly one expression, got %d", n)
	}
	r.slab(0, len(r.nodes))
	return r.lower(0)
}

// Script parses a sequence of top-level command forms into a script.
func Script(src string) (*blocks.Script, error) {
	r, err := readAll(src)
	if err != nil {
		return nil, err
	}
	r.slab(0, len(r.nodes))
	return r.lowerScript(0, len(r.nodes))
}

// Ops lists the operator vocabulary, sorted — the textual palette.
func Ops() []string {
	names := make([]string, 0, len(ops)+3)
	for n := range ops {
		names = append(names, n)
	}
	names = append(names, "do", "ring", "lambda")
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
