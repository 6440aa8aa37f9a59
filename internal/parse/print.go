package parse

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/blocks"
	"repro/internal/value"
)

// This file is the inverse of the reader: it prints block ASTs back into
// the textual language, so projects convert XML ↔ text and the parser can
// be property-tested as parse(print(x)) ≡ x.

// opNames inverts the ops table: opcode → textual operator. Built once at
// init from representative blocks.
var opNames = map[string]string{}

func init() {
	// Invert by probing each builder with placeholder inputs.
	for name, spec := range ops {
		op := spec.op
		if spec.build != nil {
			n := spec.min
			if n < 1 {
				n = 1
			}
			args := make([]blocks.Node, n)
			for i := range args {
				args[i] = blocks.Var("x") // satisfies name positions too
			}
			b, err := spec.build(args)
			if err != nil {
				continue
			}
			op = b.Op
		}
		// Prefer the shortest spelling when several map to one opcode
		// (none currently collide except via explicit aliases).
		if old, ok := opNames[op]; !ok || len(name) < len(old) {
			opNames[op] = name
		}
	}
}

// PrintNode renders an input node in the textual language.
func PrintNode(n blocks.Node) (string, error) {
	switch x := n.(type) {
	case blocks.Literal:
		return printValue(x.Val)
	case blocks.EmptySlot:
		return "_", nil
	case blocks.VarGet:
		return "$" + x.Name, nil
	case *blocks.Block:
		return printBlock(x)
	case blocks.ScriptNode:
		inner, err := printScriptBody(x.Script)
		if err != nil {
			return "", err
		}
		return "(do" + inner + ")", nil
	case blocks.RingNode:
		var body string
		var err error
		switch b := x.Body.(type) {
		case *blocks.Script:
			inner, e := printScriptBody(b)
			if e != nil {
				return "", e
			}
			body = "(do" + inner + ")"
		case blocks.Node:
			body, err = PrintNode(b)
			if err != nil {
				return "", err
			}
		default:
			return "", fmt.Errorf("empty ring body")
		}
		if len(x.Params) > 0 {
			return fmt.Sprintf("(lambda (%s) %s)", strings.Join(x.Params, " "), body), nil
		}
		return "(ring " + body + ")", nil
	case nil:
		return "_", nil
	}
	return "", fmt.Errorf("cannot print %T", n)
}

func printValue(v value.Value) (string, error) {
	switch x := v.(type) {
	case nil, value.Nothing:
		return "_", nil
	case value.Number:
		return x.String(), nil
	case value.Bool:
		return x.String(), nil
	case value.Text:
		return strconv.Quote(string(x)), nil
	case *value.List:
		parts := make([]string, 0, x.Len()+1)
		parts = append(parts, "list")
		for _, it := range x.Items() {
			s, err := printValue(it)
			if err != nil {
				return "", err
			}
			parts = append(parts, s)
		}
		return "(" + strings.Join(parts, " ") + ")", nil
	}
	return "", fmt.Errorf("cannot print a %s literal", v.Kind())
}

func printBlock(b *blocks.Block) (string, error) {
	// Name-position opcodes print their first input as a bare symbol.
	nameFirst := map[string]bool{
		"doSetVar": true, "doChangeVar": true, "doFor": true,
		"doForEach": true,
	}
	switch b.Op {
	case "doParallelForEach":
		name, ok := literalText(b.Input(0))
		if !ok {
			return "", fmt.Errorf("unprintable parallelForEach item var")
		}
		parallel := true
		if lit, ok := b.Input(4).(blocks.Literal); ok {
			if bv, ok2 := lit.Val.(value.Bool); ok2 {
				parallel = bool(bv)
			}
		}
		list, err := PrintNode(b.Input(1))
		if err != nil {
			return "", err
		}
		body, err := PrintNode(b.Input(3))
		if err != nil {
			return "", err
		}
		if parallel {
			par, err := PrintNode(b.Input(2))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("(parallelforeach %s %s %s %s)", name, list, par, body), nil
		}
		return fmt.Sprintf("(seqforeach %s %s %s)", name, list, body), nil
	case "doDeclareVariables":
		parts := []string{"declare"}
		for i := range b.Inputs {
			name, ok := literalText(b.Input(i))
			if !ok {
				return "", fmt.Errorf("unprintable declaration")
			}
			parts = append(parts, name)
		}
		return "(" + strings.Join(parts, " ") + ")", nil
	case "reportMonadic":
		fn, ok := literalText(b.Input(0))
		if !ok {
			return "", fmt.Errorf("unprintable monadic selector")
		}
		if _, known := ops[fn]; !known {
			return "", fmt.Errorf("monadic %q has no textual operator", fn)
		}
		arg, err := PrintNode(b.Input(1))
		if err != nil {
			return "", err
		}
		return "(" + fn + " " + arg + ")", nil
	}
	name, ok := opNames[b.Op]
	if !ok {
		return "", fmt.Errorf("opcode %q has no textual operator", b.Op)
	}
	parts := []string{name}
	for i := range b.Inputs {
		if i == 0 && nameFirst[b.Op] {
			n, ok := literalText(b.Input(0))
			if !ok {
				return "", fmt.Errorf("unprintable name position in %s", b.Op)
			}
			parts = append(parts, n)
			continue
		}
		s, err := PrintNode(b.Input(i))
		if err != nil {
			return "", err
		}
		parts = append(parts, s)
	}
	return "(" + strings.Join(parts, " ") + ")", nil
}

func literalText(n blocks.Node) (string, bool) {
	if lit, ok := n.(blocks.Literal); ok && lit.Val != nil {
		return lit.Val.String(), true
	}
	return "", false
}

func printScriptBody(s *blocks.Script) (string, error) {
	if s == nil || len(s.Blocks) == 0 {
		return "", nil
	}
	var b strings.Builder
	for _, blk := range s.Blocks {
		line, err := printBlock(blk)
		if err != nil {
			return "", err
		}
		b.WriteString(" " + line)
	}
	return b.String(), nil
}

// PrintScript renders a script one command per line.
func PrintScript(s *blocks.Script) (string, error) {
	if s == nil {
		return "", nil
	}
	lines := make([]string, 0, len(s.Blocks))
	for _, blk := range s.Blocks {
		line, err := printBlock(blk)
		if err != nil {
			return "", err
		}
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n"), nil
}

// PrintProject renders a whole project in the textual project form, with
// globals and sprites in stable order.
func PrintProject(p *blocks.Project) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "(project %q\n", p.Name)
	globals := make([]string, 0, len(p.Globals))
	for name := range p.Globals {
		globals = append(globals, name)
	}
	sort.Strings(globals)
	for _, name := range globals {
		v, err := printValue(p.Globals[name])
		if err != nil {
			return "", fmt.Errorf("global %q: %w", name, err)
		}
		if v == "_" {
			fmt.Fprintf(&b, "  (global %s)\n", name)
		} else {
			fmt.Fprintf(&b, "  (global %s %s)\n", name, v)
		}
	}
	customs := make([]string, 0, len(p.Customs))
	for name := range p.Customs {
		customs = append(customs, name)
	}
	sort.Strings(customs)
	for _, name := range customs {
		cb := p.Customs[name]
		kind := "command"
		if cb.IsReporter {
			kind = "reporter"
		}
		body, err := printScriptBody(cb.Body)
		if err != nil {
			return "", fmt.Errorf("custom %q: %w", name, err)
		}
		sig := append([]string{cb.Name}, cb.Params...)
		fmt.Fprintf(&b, "  (define (%s) %s (do%s))\n", strings.Join(sig, " "), kind, body)
	}
	for _, sp := range p.Sprites {
		fmt.Fprintf(&b, "  (sprite %q\n", sp.Name)
		if sp.X != 0 || sp.Y != 0 {
			fmt.Fprintf(&b, "    (at %s %s)\n", trimFloat(sp.X), trimFloat(sp.Y))
		}
		locals := make([]string, 0, len(sp.Variables))
		for name := range sp.Variables {
			locals = append(locals, name)
		}
		sort.Strings(locals)
		for _, name := range locals {
			v, err := printValue(sp.Variables[name])
			if err != nil {
				return "", fmt.Errorf("local %q: %w", name, err)
			}
			if v == "_" {
				fmt.Fprintf(&b, "    (local %s)\n", name)
			} else {
				fmt.Fprintf(&b, "    (local %s %s)\n", name, v)
			}
		}
		for _, hs := range sp.Scripts {
			hat := ""
			switch hs.Hat {
			case blocks.HatGreenFlag:
				hat = "green-flag"
			case blocks.HatCloneStart:
				hat = "clone-start"
			case blocks.HatKeyPress:
				hat = fmt.Sprintf("(key %q)", hs.Arg)
			case blocks.HatBroadcast:
				hat = fmt.Sprintf("(receive %q)", hs.Arg)
			}
			body, err := printScriptBody(hs.Script)
			if err != nil {
				return "", fmt.Errorf("sprite %q: %w", sp.Name, err)
			}
			fmt.Fprintf(&b, "    (when %s (do%s))\n", hat, body)
		}
		b.WriteString("  )\n")
	}
	b.WriteString(")\n")
	return b.String(), nil
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
