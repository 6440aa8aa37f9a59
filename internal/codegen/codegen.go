// Package codegen implements Snap!'s experimental code-mapping feature as
// used in §6 of the paper: the translation of visual block programs into
// text-based source code — "through the use of this feature, parallel
// programs in Snap! are translated to OpenMP code ready to compile and run
// in traditional parallel computing environments."
//
// Each target language is a table of templates keyed by opcode, with
// placeholders marking where translated inputs are spliced in — exactly
// Figure 15's mapping constructs, where "<#1>, <#2>... signify the mapping
// of the first location in the block to be filled in, the second, and so
// forth. The remainder of the characters are copied to the output
// verbatim." Because block programs nest, "the value substituted for a
// particular placeholder may itself have resulted from the translation of
// a nested block."
//
// Placeholder forms:
//
//	<#n>  the n-th input, translated as an expression
//	<$n>  the n-th input rendered raw as an identifier (variable names)
//	<&n>  the n-th input, a script body, translated as indented statements
//
// Mappings exist for C (c.go), OpenMP C (openmp.go), JavaScript, Python,
// and Go (langs.go) — "currently, mappings exist for JavaScript, C,
// Smalltalk, and Python. Code mappings for new textual languages can
// easily be specified by the user by creating the corresponding mapping
// block": a Lang table is that mapping block.
//
// Each translation job is written once. Emit is the one dispatch from a
// language name to its emitter. ringExpr translates every ring that
// becomes code — a lambda, a map program's worker function, the MapReduce
// mapper. One C map-program template yields both the sequential and the
// OpenMP map, the latter adding only omp.h, the thread count and the
// pragma (§6.1). cDataArray formats every embedded dataset.
package codegen

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/blocks"
	"repro/internal/value"
)

// GenFunc is a custom generator for opcodes whose translation needs more
// than a template (variadic joins, list construction, parallel loops).
type GenFunc func(t *Translator, b *blocks.Block, indent int) (string, error)

// Lang describes one target language's mapping tables.
type Lang struct {
	// Name identifies the language ("c", "js", "python", "go").
	Name string
	// Expr maps reporter opcodes to expression templates.
	Expr map[string]string
	// Stmt maps command opcodes to statement templates.
	Stmt map[string]string
	// Custom overrides both for opcodes needing bespoke generation.
	Custom map[string]GenFunc
	// QuoteText renders a text literal.
	QuoteText func(string) string
	// BoolLit renders the two boolean literals.
	TrueLit, FalseLit string
	// IndentUnit is one level of indentation.
	IndentUnit string
	// StmtSuffix terminates a simple expression statement (";" in C).
	StmtSuffix string
	// EmptyBody fills an empty C-slot ("pass" in Python, "" elsewhere).
	EmptyBody string
	// LineComment starts a comment line.
	LineComment string
}

// Ident sanitizes a Snap! variable name (which may contain spaces) into a
// legal identifier.
func Ident(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// Translator walks a block AST emitting target-language text.
type Translator struct {
	Lang *Lang
	// implicits are the names bound to empty slots during ring-body
	// translation — the textual analogue of the interpreter's implicit
	// arguments.
	implicits   []string
	implicitIdx int
}

// New builds a translator for the language.
func New(l *Lang) *Translator { return &Translator{Lang: l} }

// ErrUnknownLang is wrapped by the error ForLang and Emit return for a
// language name with no mapping.
var ErrUnknownLang = errors.New("no code mapping")

// ForLang builds a translator by language name: "c", "js", "python", "go".
func ForLang(name string) (*Translator, error) {
	switch strings.ToLower(name) {
	case "c":
		return New(CLang()), nil
	case "js", "javascript":
		return New(JSLang()), nil
	case "python", "py":
		return New(PythonLang()), nil
	case "go", "golang":
		return New(GoLang()), nil
	}
	return nil, fmt.Errorf("%w for language %q", ErrUnknownLang, name)
}

// Emit translates a script into the named language: a whole program for
// "c" and "openmp", the translated statements for the languages ForLang
// knows. It is the one language dispatch every front end shares.
func Emit(lang string, s *blocks.Script) (string, error) {
	switch strings.ToLower(lang) {
	case "c":
		return NewCEmitter().Program(s)
	case "openmp":
		return NewOpenMPEmitter().Program(s)
	}
	t, err := ForLang(lang)
	if err != nil {
		return "", err
	}
	return t.Script(s, 0)
}

// WithImplicits returns a child translator whose empty slots render as the
// given parameter names — used to translate ring bodies into function
// bodies, Listing 2's mappedCode().
func (t *Translator) WithImplicits(names ...string) *Translator {
	return &Translator{Lang: t.Lang, implicits: names}
}

func (t *Translator) takeImplicit() (string, error) {
	if len(t.implicits) == 0 {
		return "", fmt.Errorf("empty slot outside a ring has no meaning in text")
	}
	if len(t.implicits) == 1 {
		return t.implicits[0], nil
	}
	if t.implicitIdx < len(t.implicits) {
		name := t.implicits[t.implicitIdx]
		t.implicitIdx++
		return name, nil
	}
	return t.implicits[len(t.implicits)-1], nil
}

// Expr translates a slot node to an expression string.
func (t *Translator) Expr(n blocks.Node) (string, error) {
	switch x := n.(type) {
	case blocks.Literal:
		return t.literal(x.Val)
	case blocks.VarGet:
		return Ident(x.Name), nil
	case blocks.EmptySlot:
		return t.takeImplicit()
	case blocks.RingNode:
		// A bare ring in expression position translates to its body's
		// code with its parameters as implicits.
		if _, ok := x.Body.(*blocks.Script); ok {
			return "", fmt.Errorf("cannot translate a command ring as an expression")
		}
		return t.WithImplicits(x.Params...).Expr(x.Body)
	case *blocks.Block:
		return t.exprBlock(x)
	case nil:
		return "", fmt.Errorf("cannot translate an absent input")
	default:
		return "", fmt.Errorf("cannot translate %T as an expression", n)
	}
}

func (t *Translator) literal(v value.Value) (string, error) {
	switch x := v.(type) {
	case nil, value.Nothing:
		return "", fmt.Errorf("cannot translate an empty literal")
	case value.Number:
		return x.String(), nil
	case value.Bool:
		if x {
			return t.Lang.TrueLit, nil
		}
		return t.Lang.FalseLit, nil
	case value.Text:
		return t.Lang.QuoteText(string(x)), nil
	case *value.List:
		parts := make([]string, x.Len())
		for i, item := range x.Items() {
			s, err := t.literal(item)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		return "{" + strings.Join(parts, ", ") + "}", nil
	default:
		return "", fmt.Errorf("cannot translate a %s literal", v.Kind())
	}
}

func (t *Translator) exprBlock(b *blocks.Block) (string, error) {
	if gen, ok := t.Lang.Custom[b.Op]; ok {
		return gen(t, b, 0)
	}
	tpl, ok := t.Lang.Expr[b.Op]
	if !ok {
		return "", fmt.Errorf("no %s mapping for block %q", t.Lang.Name, b.Op)
	}
	return t.fill(tpl, b, 0)
}

// Stmt translates one command block at the given indent.
func (t *Translator) Stmt(b *blocks.Block, indent int) (string, error) {
	if gen, ok := t.Lang.Custom[b.Op]; ok {
		return gen(t, b, indent)
	}
	if tpl, ok := t.Lang.Stmt[b.Op]; ok {
		return t.fill(tpl, b, indent)
	}
	// A reporter used as a statement (its value discarded).
	if _, ok := t.Lang.Expr[b.Op]; ok {
		e, err := t.exprBlock(b)
		if err != nil {
			return "", err
		}
		return t.indent(indent) + e + t.Lang.StmtSuffix, nil
	}
	return "", fmt.Errorf("no %s mapping for block %q", t.Lang.Name, b.Op)
}

// Script translates a script as statements at the given indent.
func (t *Translator) Script(s *blocks.Script, indent int) (string, error) {
	if s == nil || len(s.Blocks) == 0 {
		if t.Lang.EmptyBody != "" {
			return t.indent(indent) + t.Lang.EmptyBody, nil
		}
		return "", nil
	}
	lines := make([]string, 0, len(s.Blocks))
	for _, b := range s.Blocks {
		chunk, err := t.Stmt(b, indent)
		if err != nil {
			return "", err
		}
		if chunk != "" {
			lines = append(lines, chunk)
		}
	}
	return strings.Join(lines, "\n"), nil
}

// BodyOf translates a body input (a ScriptNode or RingNode C-slot) at the
// given indent.
func (t *Translator) BodyOf(n blocks.Node, indent int) (string, error) {
	switch x := n.(type) {
	case blocks.ScriptNode:
		return t.Script(x.Script, indent)
	case blocks.RingNode:
		if s, ok := x.Body.(*blocks.Script); ok {
			return t.Script(s, indent)
		}
		return "", fmt.Errorf("expected a script body")
	case blocks.EmptySlot:
		return t.Script(nil, indent)
	default:
		return "", fmt.Errorf("expected a script body, got %T", n)
	}
}

func (t *Translator) indent(n int) string {
	return strings.Repeat(t.Lang.IndentUnit, n)
}

// fill substitutes a template's placeholders. Template lines are indented
// at the statement's level; a line consisting solely of a body placeholder
// <&n> is replaced by the body translated one level deeper.
func (t *Translator) fill(tpl string, b *blocks.Block, indent int) (string, error) {
	lines := strings.Split(tpl, "\n")
	out := make([]string, 0, len(lines))
	for _, line := range lines {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "<&") && strings.HasSuffix(trimmed, ">") {
			idx, err := strconv.Atoi(trimmed[2 : len(trimmed)-1])
			if err != nil {
				return "", fmt.Errorf("bad body placeholder %q", trimmed)
			}
			body, err := t.BodyOf(b.Input(idx-1), indent+1)
			if err != nil {
				return "", err
			}
			if body != "" {
				out = append(out, body)
			}
			continue
		}
		filled, err := t.fillInline(line, b)
		if err != nil {
			return "", err
		}
		out = append(out, t.indent(indent)+filled)
	}
	return strings.Join(out, "\n"), nil
}

// fillInline substitutes <#n> and <$n> within a single template line.
func (t *Translator) fillInline(line string, b *blocks.Block) (string, error) {
	var out strings.Builder
	for i := 0; i < len(line); {
		if line[i] == '<' && i+3 <= len(line) && (line[i+1] == '#' || line[i+1] == '$') {
			end := strings.IndexByte(line[i:], '>')
			if end > 2 {
				numStr := line[i+2 : i+end]
				if idx, err := strconv.Atoi(numStr); err == nil {
					in := b.Input(idx - 1)
					var s string
					var terr error
					if line[i+1] == '$' {
						s, terr = rawIdent(in)
					} else {
						s, terr = t.Expr(in)
					}
					if terr != nil {
						return "", terr
					}
					out.WriteString(s)
					i += end + 1
					continue
				}
			}
		}
		out.WriteByte(line[i])
		i++
	}
	return out.String(), nil
}

// rawIdent renders an input that names something (a variable) as an
// identifier.
func rawIdent(n blocks.Node) (string, error) {
	switch x := n.(type) {
	case blocks.Literal:
		return Ident(x.Val.String()), nil
	case blocks.VarGet:
		return Ident(x.Name), nil
	default:
		return "", fmt.Errorf("expected a name, got %T", n)
	}
}

// ringExpr translates a reporter ring's body into lang with the ring's one
// input spelled param, whether the ring names it or leaves empty slots —
// the function body of Listing 2's mappedCode. Every generated lambda and
// map function goes through here.
func ringExpr(lang *Lang, ring blocks.RingNode, param string) (string, error) {
	body := ring.Body
	if len(ring.Params) > 1 {
		return "", fmt.Errorf("map ring must take one input")
	}
	if _, ok := body.(*blocks.Script); ok {
		return "", fmt.Errorf("map ring must be a reporter")
	}
	if len(ring.Params) == 1 {
		body = renameVar(body, ring.Params[0])
	}
	return New(lang).WithImplicits(param).Expr(body)
}

// renameVar rewrites references to the named variable into empty slots so
// the implicit-argument mechanism renders them.
func renameVar(n blocks.Node, name string) blocks.Node {
	switch x := n.(type) {
	case blocks.VarGet:
		if x.Name == name {
			return blocks.EmptySlot{}
		}
		return x
	case *blocks.Block:
		out := &blocks.Block{Op: x.Op, Inputs: make([]blocks.Node, len(x.Inputs))}
		for i, in := range x.Inputs {
			out.Inputs[i] = renameVar(in, name)
		}
		return out
	default:
		return n
	}
}

// parallelMapExpr translates a parallelMap block's ring into lang as the
// body of a function of x, for the standalone map programs.
func parallelMapExpr(lang *Lang, b *blocks.Block) (string, error) {
	if b.Op != "reportParallelMap" {
		return "", fmt.Errorf("expected a parallelMap block, got %q", b.Op)
	}
	ring, ok := b.Input(0).(blocks.RingNode)
	if !ok {
		return "", fmt.Errorf("parallelMap's first input must be a ring")
	}
	return ringExpr(lang, ring, "x")
}

// ringAsLambda translates a ring input into an anonymous function using
// the given wrapper format, with x as the parameter.
func ringAsLambda(t *Translator, n blocks.Node, wrapper string) (string, error) {
	ring, ok := n.(blocks.RingNode)
	if !ok {
		return "", fmt.Errorf("expected a ring")
	}
	expr, err := ringExpr(t.Lang, ring, "x")
	if err != nil {
		return "", err
	}
	return fmt.Sprintf(wrapper, expr), nil
}

// The generators below are shared by the languages whose mapping needs
// them; each language's table names its own delimiters and formats.

// declareNothing maps "script variables" to no code: these languages
// declare a variable at its first assignment.
func declareNothing(*Translator, *blocks.Block, int) (string, error) {
	return "", nil
}

// listCtor generates a list-literal constructor from the translated items
// between open and close.
func listCtor(open, close string) GenFunc {
	return func(t *Translator, b *blocks.Block, _ int) (string, error) {
		parts := make([]string, len(b.Inputs))
		for i := range b.Inputs {
			s, err := t.Expr(b.Input(i))
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		return open + strings.Join(parts, ", ") + close, nil
	}
}

// mapCall generates a map of a ring (input 1) over a list (input 2):
// format receives the ring as a lambda built by wrapper, then the list.
func mapCall(wrapper, format string) GenFunc {
	return func(t *Translator, b *blocks.Block, _ int) (string, error) {
		fn, err := ringAsLambda(t, b.Input(0), wrapper)
		if err != nil {
			return "", err
		}
		list, err := t.Expr(b.Input(1))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(format, fn, list), nil
	}
}
