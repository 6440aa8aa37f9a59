package parse

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"repro/internal/blocks"
	"repro/internal/value"
)

// This file keeps the original s-expression reader and its lowering as
// the oracle for the flat-array reader: it converts the source to
// []rune, builds each atom in a strings.Builder, boxes every atom and
// list, and lowers the boxed tree. The code is kept as it was, with its
// identifiers renamed (ref prefix) and one adaptation: refBuild builds
// the plain operators, whose table entries now carry an opcode instead
// of a builder. FuzzReaderMatchesReference holds the two readers to the
// same project, expression or script, or the same error.

// refBuild is opSpec.build as the reference lowering knew it.
func refBuild(spec opSpec, args []blocks.Node) (*blocks.Block, error) {
	if spec.build == nil {
		return blocks.NewBlock(spec.op, args...), nil
	}
	return spec.build(args)
}

// FuzzReaderMatchesReference reads each input with Project, Expr and
// Script and with their reference twins. Both sides must accept it with
// the same AST (the same PrintProject, PrintNode or PrintScript text and
// the same structural encoding, blocks.AppendKey) or reject it with the
// same error. The one wording allowed to differ is the head Project
// names in "expected (project ...), got ...": the reference printed its
// internal struct there, the reader prints the head's source text.
func FuzzReaderMatchesReference(f *testing.F) {
	for _, seeds := range [][]string{exprSeeds, projectSeeds, scriptSeeds} {
		for _, seed := range seeds {
			f.Add(seed)
		}
	}
	for _, rows := range [][]struct{ src, want string }{exprErrors, scriptErrors, projectErrors} {
		for _, row := range rows {
			f.Add(row.src)
		}
	}
	// Every escape, and Unicode in strings, symbols and whitespace.
	f.Add(`(join "a\nb" "\t" "q\"q" "\\" "\é" "héllo" wörld)` + "\u00a0(say \"\u0085\")")
	files, err := filepath.Glob("../../projects/*.sblk")
	if err != nil {
		f.Fatal(err)
	}
	examples, err := filepath.Glob("../../examples/*/*.sblk")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range append(files, examples...) {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Project(src)
		rp, rerr := refProject(src)
		sameOutcome(t, "Project", src, projectImage, p, err, rp, rerr)
		n, err := Expr(src)
		rn, rerr := refExpr(src)
		sameOutcome(t, "Expr", src, nodeImage, n, err, rn, rerr)
		s, err := Script(src)
		rs, rerr := refScript(src)
		sameOutcome(t, "Script", src, scriptImage, s, err, rs, rerr)
	})
}

// sameOutcome fails t unless the reader and the reference agree.
func sameOutcome[T any](t *testing.T, entry, src string, image func(T) string, got T, err error, want T, wantErr error) {
	t.Helper()
	switch {
	case err != nil || wantErr != nil:
		if err == nil || wantErr == nil || !sameError(err.Error(), wantErr.Error()) {
			t.Fatalf("%s(%q): error %v, reference error %v", entry, src, err, wantErr)
		}
	case image(got) != image(want):
		t.Fatalf("%s(%q):\n%s\nreference:\n%s", entry, src, image(got), image(want))
	}
}

func sameError(got, want string) bool {
	const head = "expected (project ...), got "
	if strings.HasPrefix(want, head) {
		return strings.HasPrefix(got, head)
	}
	return got == want
}

// projectImage renders a project for comparison: its printed text and the
// structural encoding of every script and custom block body.
func projectImage(p *blocks.Project) string {
	var b strings.Builder
	text, err := PrintProject(p)
	fmt.Fprintf(&b, "%s%v\n", text, err)
	names := make([]string, 0, len(p.Customs))
	for name := range p.Customs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteString(scriptImage(p.Customs[name].Body))
	}
	for _, sp := range p.Sprites {
		for _, hs := range sp.Scripts {
			b.WriteString(scriptImage(hs.Script))
		}
	}
	return b.String()
}

func nodeImage(n blocks.Node) string {
	text, err := PrintNode(n)
	key, ok := blocks.AppendKey(nil, n)
	return fmt.Sprintf("%s %v %s %v\n", text, err, hex.EncodeToString(key), ok)
}

func scriptImage(s *blocks.Script) string {
	text, err := PrintScript(s)
	key, ok := blocks.AppendKey(nil, blocks.ScriptNode{Script: s})
	return fmt.Sprintf("%s %v %s %v\n", text, err, hex.EncodeToString(key), ok)
}

// --- s-expression reader ---

type refSexpr interface{ pos() int }

type refAtom struct {
	at   int
	text string
	str  bool // quoted string literal
}

func (a refAtom) pos() int { return a.at }

type refList struct {
	at    int
	items []refSexpr
}

func (l refList) pos() int { return l.at }

type refReader struct {
	src   []rune
	i     int
	depth int
}

func (r *refReader) error(at int, format string, args ...any) error {
	line, col := 1, 1
	for j := 0; j < at && j < len(r.src); j++ {
		if r.src[j] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (r *refReader) skipSpace() {
	for r.i < len(r.src) {
		c := r.src[r.i]
		if c == ';' { // comment to end of line
			for r.i < len(r.src) && r.src[r.i] != '\n' {
				r.i++
			}
			continue
		}
		if !unicode.IsSpace(c) {
			return
		}
		r.i++
	}
}

func (r *refReader) read() (refSexpr, error) {
	r.skipSpace()
	if r.i >= len(r.src) {
		return nil, r.error(r.i, "unexpected end of input")
	}
	at := r.i
	switch c := r.src[r.i]; {
	case c == '(':
		r.depth++
		if r.depth > maxNesting {
			return nil, r.error(at, "forms nested deeper than %d", maxNesting)
		}
		defer func() { r.depth-- }()
		r.i++
		var items []refSexpr
		for {
			r.skipSpace()
			if r.i >= len(r.src) {
				return nil, r.error(at, "unclosed parenthesis")
			}
			if r.src[r.i] == ')' {
				r.i++
				return refList{at: at, items: items}, nil
			}
			item, err := r.read()
			if err != nil {
				return nil, err
			}
			items = append(items, item)
		}
	case c == ')':
		return nil, r.error(at, "unexpected ')'")
	case c == '"':
		r.i++
		var b strings.Builder
		for {
			if r.i >= len(r.src) {
				return nil, r.error(at, "unterminated string")
			}
			c := r.src[r.i]
			r.i++
			if c == '"' {
				return refAtom{at: at, text: b.String(), str: true}, nil
			}
			if c == '\\' && r.i < len(r.src) {
				esc := r.src[r.i]
				r.i++
				switch esc {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				default:
					b.WriteRune(esc)
				}
				continue
			}
			b.WriteRune(c)
		}
	default:
		var b strings.Builder
		for r.i < len(r.src) {
			c := r.src[r.i]
			if unicode.IsSpace(c) || c == '(' || c == ')' || c == ';' {
				break
			}
			b.WriteRune(c)
			r.i++
		}
		return refAtom{at: at, text: b.String()}, nil
	}
}

// readAll reads every top-level form.
func refReadAll(src string) ([]refSexpr, *refReader, error) {
	r := &refReader{src: []rune(src)}
	var out []refSexpr
	for {
		r.skipSpace()
		if r.i >= len(r.src) {
			return out, r, nil
		}
		form, err := r.read()
		if err != nil {
			return nil, r, err
		}
		out = append(out, form)
	}
}

// lower converts one s-expression into a block input node.
func (r *refReader) lower(s refSexpr) (blocks.Node, error) {
	switch x := s.(type) {
	case refAtom:
		return r.lowerAtom(x)
	case refList:
		return r.lowerList(x)
	}
	return nil, r.error(s.pos(), "unknown form")
}

func (r *refReader) lowerAtom(a refAtom) (blocks.Node, error) {
	if a.str {
		return blocks.Txt(a.text), nil
	}
	switch a.text {
	case "_":
		return blocks.Empty(), nil
	case "true":
		return blocks.BoolLit(true), nil
	case "false":
		return blocks.BoolLit(false), nil
	}
	if strings.HasPrefix(a.text, "$") {
		if len(a.text) == 1 {
			return nil, r.error(a.at, "$ needs a variable name")
		}
		return blocks.Var(a.text[1:]), nil
	}
	if f, err := strconv.ParseFloat(a.text, 64); err == nil {
		return blocks.Num(f), nil
	}
	// Bare symbols stand for names (variable slots of set/for/foreach);
	// lower as VarGet so nameArg can recover the spelling, and reading
	// them in value position still reads the variable.
	return blocks.Var(a.text), nil
}

func (r *refReader) lowerList(l refList) (blocks.Node, error) {
	if len(l.items) == 0 {
		return nil, r.error(l.at, "empty form")
	}
	head, ok := l.items[0].(refAtom)
	if !ok || head.str {
		return nil, r.error(l.items[0].pos(), "a form must start with an operator symbol")
	}
	switch head.text {
	case "do":
		script, err := r.lowerScript(l.items[1:])
		if err != nil {
			return nil, err
		}
		return blocks.ScriptNode{Script: script}, nil
	case "ring":
		if len(l.items) != 2 {
			return nil, r.error(l.at, "ring takes exactly one body")
		}
		body, err := r.lower(l.items[1])
		if err != nil {
			return nil, err
		}
		if sn, ok := body.(blocks.ScriptNode); ok {
			return blocks.RingScript(sn.Script), nil
		}
		return blocks.RingOf(body), nil
	case "lambda":
		if len(l.items) != 3 {
			return nil, r.error(l.at, "lambda takes a parameter list and one body")
		}
		plist, ok := l.items[1].(refList)
		if !ok {
			return nil, r.error(l.items[1].pos(), "lambda parameters must be a list")
		}
		var params []string
		for _, p := range plist.items {
			pa, ok := p.(refAtom)
			if !ok || pa.str {
				return nil, r.error(p.pos(), "lambda parameter must be a symbol")
			}
			params = append(params, pa.text)
		}
		body, err := r.lower(l.items[2])
		if err != nil {
			return nil, err
		}
		if sn, ok := body.(blocks.ScriptNode); ok {
			return blocks.RingScript(sn.Script, params...), nil
		}
		return blocks.RingOf(body, params...), nil
	}
	spec, ok := ops[head.text]
	if !ok {
		return nil, r.error(head.at, "unknown operator %q", head.text)
	}
	args := make([]blocks.Node, 0, len(l.items)-1)
	for _, item := range l.items[1:] {
		n, err := r.lower(item)
		if err != nil {
			return nil, err
		}
		args = append(args, n)
	}
	if len(args) < spec.min || (spec.max >= 0 && len(args) > spec.max) {
		if spec.max < 0 {
			return nil, r.error(l.at, "%s needs at least %d inputs, got %d", head.text, spec.min, len(args))
		}
		return nil, r.error(l.at, "%s needs %d inputs, got %d", head.text, spec.max, len(args))
	}
	b, err := refBuild(spec, args)
	if err != nil {
		return nil, r.error(l.at, "%s: %v", head.text, err)
	}
	return b, nil
}

func (r *refReader) lowerScript(forms []refSexpr) (*blocks.Script, error) {
	script := blocks.NewScript()
	for _, form := range forms {
		n, err := r.lower(form)
		if err != nil {
			return nil, err
		}
		b, ok := n.(*blocks.Block)
		if !ok {
			return nil, r.error(form.pos(), "scripts contain command blocks, not %T", n)
		}
		script.Append(b)
	}
	return script, nil
}

// refExpr is Expr on the reference reader.
func refExpr(src string) (blocks.Node, error) {
	forms, r, err := refReadAll(src)
	if err != nil {
		return nil, err
	}
	if len(forms) != 1 {
		return nil, fmt.Errorf("expected exactly one expression, got %d", len(forms))
	}
	return r.lower(forms[0])
}

// refScript is Script on the reference reader.
func refScript(src string) (*blocks.Script, error) {
	forms, r, err := refReadAll(src)
	if err != nil {
		return nil, err
	}
	return r.lowerScript(forms)
}

// refProject is Project on the reference reader.
func refProject(src string) (*blocks.Project, error) {
	forms, r, err := refReadAll(src)
	if err != nil {
		return nil, err
	}
	if len(forms) != 1 {
		return nil, fmt.Errorf("expected exactly one (project ...) form, got %d forms", len(forms))
	}
	top, ok := forms[0].(refList)
	if !ok || len(top.items) < 2 {
		return nil, fmt.Errorf("expected (project \"name\" ...)")
	}
	head, ok := top.items[0].(refAtom)
	if !ok || head.text != "project" {
		return nil, fmt.Errorf("expected (project ...), got %v", top.items[0])
	}
	nameAtom, ok := top.items[1].(refAtom)
	if !ok {
		return nil, r.error(top.items[1].pos(), "project name must be a string or symbol")
	}
	p := blocks.NewProject(nameAtom.text)
	for _, form := range top.items[2:] {
		l, ok := form.(refList)
		if !ok || len(l.items) == 0 {
			return nil, r.error(form.pos(), "project bodies are (global ...), (define ...), or (sprite ...) forms")
		}
		kind, ok := l.items[0].(refAtom)
		if !ok {
			return nil, r.error(l.items[0].pos(), "expected a form keyword")
		}
		switch kind.text {
		case "global":
			if err := r.parseGlobal(p, l); err != nil {
				return nil, err
			}
		case "define":
			cb, err := r.parseDefine(l)
			if err != nil {
				return nil, err
			}
			p.Customs[cb.Name] = cb
		case "sprite":
			sp, err := r.parseSprite(l)
			if err != nil {
				return nil, err
			}
			p.AddSprite(sp)
		default:
			return nil, r.error(kind.at, "unknown project form %q", kind.text)
		}
	}
	return p, nil
}

// parseGlobal handles (global name initial-value?).
func (r *refReader) parseGlobal(p *blocks.Project, l refList) error {
	if len(l.items) < 2 || len(l.items) > 3 {
		return r.error(l.at, "global takes a name and an optional initial value")
	}
	nameAtom, ok := l.items[1].(refAtom)
	if !ok || nameAtom.str {
		return r.error(l.items[1].pos(), "global name must be a symbol")
	}
	if len(l.items) == 2 {
		p.Globals[nameAtom.text] = value.Nothing{}
		return nil
	}
	v, err := r.constValue(l.items[2])
	if err != nil {
		return err
	}
	p.Globals[nameAtom.text] = v
	return nil
}

// constValue evaluates the constant expressions allowed as initial values:
// literals and (list ...) of constants.
func (r *refReader) constValue(s refSexpr) (value.Value, error) {
	switch x := s.(type) {
	case refAtom:
		if x.str {
			return value.Text(x.text), nil
		}
		n, err := r.lowerAtom(x)
		if err != nil {
			return nil, err
		}
		if lit, ok := n.(blocks.Literal); ok {
			return lit.Val, nil
		}
		return nil, r.error(x.at, "globals take constant initial values, not %q", x.text)
	case refList:
		if len(x.items) == 0 {
			return nil, r.error(x.at, "empty form")
		}
		head, ok := x.items[0].(refAtom)
		if !ok || head.text != "list" {
			return nil, r.error(x.at, "globals take constants or (list ...) initial values")
		}
		items := make([]value.Value, 0, len(x.items)-1)
		for _, item := range x.items[1:] {
			v, err := r.constValue(item)
			if err != nil {
				return nil, err
			}
			items = append(items, v)
		}
		// AdoptSlice turns a long homogeneous literal (a data-file-sized
		// numeric global) into a columnar list in the shared AST.
		return value.AdoptSlice(items), nil
	}
	return nil, r.error(s.pos(), "bad constant")
}

// parseDefine handles (define (name params...) reporter|command body-do).
func (r *refReader) parseDefine(l refList) (*blocks.CustomBlock, error) {
	if len(l.items) != 4 {
		return nil, r.error(l.at, "define takes (name params...), reporter|command, and a (do ...) body")
	}
	sig, ok := l.items[1].(refList)
	if !ok || len(sig.items) == 0 {
		return nil, r.error(l.items[1].pos(), "define needs a (name params...) signature")
	}
	cb := &blocks.CustomBlock{}
	for i, item := range sig.items {
		a, ok := item.(refAtom)
		if !ok || a.str {
			return nil, r.error(item.pos(), "signature elements must be symbols")
		}
		if i == 0 {
			cb.Name = a.text
		} else {
			cb.Params = append(cb.Params, a.text)
		}
	}
	kindAtom, ok := l.items[2].(refAtom)
	if !ok || (kindAtom.text != "reporter" && kindAtom.text != "command") {
		return nil, r.error(l.items[2].pos(), "define kind must be reporter or command")
	}
	cb.IsReporter = kindAtom.text == "reporter"
	body, err := r.lower(l.items[3])
	if err != nil {
		return nil, err
	}
	sn, ok := body.(blocks.ScriptNode)
	if !ok {
		return nil, r.error(l.items[3].pos(), "define body must be a (do ...) form")
	}
	cb.Body = sn.Script
	return cb, nil
}

// parseSprite handles (sprite "Name" (at x y)? (local name val?)* (when hat script)*).
func (r *refReader) parseSprite(l refList) (*blocks.Sprite, error) {
	if len(l.items) < 2 {
		return nil, r.error(l.at, "sprite needs a name")
	}
	nameAtom, ok := l.items[1].(refAtom)
	if !ok {
		return nil, r.error(l.items[1].pos(), "sprite name must be a string")
	}
	sp := blocks.NewSprite(nameAtom.text)
	for _, form := range l.items[2:] {
		fl, ok := form.(refList)
		if !ok || len(fl.items) == 0 {
			return nil, r.error(form.pos(), "sprite bodies are (at ...), (local ...), or (when ...) forms")
		}
		kind, ok := fl.items[0].(refAtom)
		if !ok {
			return nil, r.error(fl.items[0].pos(), "expected a form keyword")
		}
		switch kind.text {
		case "at":
			if len(fl.items) != 3 {
				return nil, r.error(fl.at, "at takes x and y")
			}
			x, errX := r.constValue(fl.items[1])
			y, errY := r.constValue(fl.items[2])
			if errX != nil || errY != nil {
				return nil, r.error(fl.at, "at takes numeric constants")
			}
			xn, errX := value.ToNumber(x)
			yn, errY := value.ToNumber(y)
			if errX != nil || errY != nil {
				return nil, r.error(fl.at, "at takes numeric constants")
			}
			sp.X, sp.Y = float64(xn), float64(yn)
		case "local":
			if len(fl.items) < 2 || len(fl.items) > 3 {
				return nil, r.error(fl.at, "local takes a name and an optional initial value")
			}
			na, ok := fl.items[1].(refAtom)
			if !ok || na.str {
				return nil, r.error(fl.items[1].pos(), "local name must be a symbol")
			}
			if len(fl.items) == 3 {
				v, err := r.constValue(fl.items[2])
				if err != nil {
					return nil, err
				}
				sp.Variables[na.text] = v
			} else {
				sp.Variables[na.text] = value.Nothing{}
			}
		case "when":
			if len(fl.items) != 3 {
				return nil, r.error(fl.at, "when takes a hat and a (do ...) script")
			}
			hat, arg, err := r.parseHat(fl.items[1])
			if err != nil {
				return nil, err
			}
			body, err := r.lower(fl.items[2])
			if err != nil {
				return nil, err
			}
			sn, ok := body.(blocks.ScriptNode)
			if !ok {
				return nil, r.error(fl.items[2].pos(), "when body must be a (do ...) form")
			}
			sp.AddScript(hat, arg, sn.Script)
		default:
			return nil, r.error(kind.at, "unknown sprite form %q", kind.text)
		}
	}
	return sp, nil
}

func (r *refReader) parseHat(s refSexpr) (blocks.HatKind, string, error) {
	switch x := s.(type) {
	case refAtom:
		switch x.text {
		case "green-flag":
			return blocks.HatGreenFlag, "", nil
		case "clone-start":
			return blocks.HatCloneStart, "", nil
		}
		return 0, "", r.error(x.at, "unknown hat %q (green-flag, clone-start, (key ...), (receive ...))", x.text)
	case refList:
		if len(x.items) != 2 {
			return 0, "", r.error(x.at, "hat forms take one argument")
		}
		kind, ok := x.items[0].(refAtom)
		if !ok {
			return 0, "", r.error(x.items[0].pos(), "expected key or receive")
		}
		arg, ok := x.items[1].(refAtom)
		if !ok {
			return 0, "", r.error(x.items[1].pos(), "hat argument must be a string")
		}
		switch kind.text {
		case "key":
			return blocks.HatKeyPress, arg.text, nil
		case "receive":
			return blocks.HatBroadcast, arg.text, nil
		}
		return 0, "", r.error(kind.at, "unknown hat form %q", kind.text)
	}
	return 0, "", r.error(s.pos(), "bad hat")
}
