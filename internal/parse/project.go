package parse

import (
	"fmt"

	"repro/internal/blocks"
	"repro/internal/value"
)

// This file extends the textual language from scripts to whole projects,
// so a complete Snap!-style project — sprites, hats, globals, custom
// blocks — can be written as text, converted to XML, or run directly:
//
//	(project "concession"
//	  (global cups (list "Cup1" "Cup2" "Cup3"))
//	  (sprite "Pitcher"
//	    (at -150 100)
//	    (when green-flag (do
//	      (resettimer)
//	      (parallelforeach cup $cups _ (do
//	        (wait 3)
//	        (broadcast $cup))))))
//	  (sprite "Cup1"
//	    (when (receive "Cup1") (do (say "full!")))))
//
// Hat forms: green-flag, (key "right arrow"), (receive "msg"), clone-start.

// Project parses a textual project definition.
func Project(src string) (*blocks.Project, error) {
	r, err := readAll(src)
	if err != nil {
		return nil, err
	}
	if n := r.span(0, len(r.nodes)); n != 1 {
		return nil, fmt.Errorf("expected exactly one (project ...) form, got %d forms", n)
	}
	if r.nodes[0].kind != listForm || r.count(0) < 2 {
		return nil, fmt.Errorf("expected (project \"name\" ...)")
	}
	if head := r.nodes[1]; head.kind == listForm || r.text(1) != "project" {
		return nil, fmt.Errorf("expected (project ...), got %s", src[head.at:head.end])
	}
	name := r.next(1)
	if r.nodes[name].kind == listForm {
		return nil, r.error(name, "project name must be a string or symbol")
	}
	p := blocks.NewProject(r.keep(name))
	for form := r.next(name); form < len(r.nodes); form = r.next(form) {
		nd := r.nodes[form]
		if nd.kind != listForm || nd.size == 1 {
			return nil, r.error(form, "project bodies are (global ...), (define ...), or (sprite ...) forms")
		}
		kind := form + 1
		if r.nodes[kind].kind == listForm {
			return nil, r.error(kind, "expected a form keyword")
		}
		switch keyword := r.text(kind); keyword {
		case "global":
			if err := r.parseGlobal(p, form); err != nil {
				return nil, err
			}
		case "define":
			cb, err := r.parseDefine(form)
			if err != nil {
				return nil, err
			}
			p.Customs[cb.Name] = cb
		case "sprite":
			sp, err := r.parseSprite(form)
			if err != nil {
				return nil, err
			}
			p.AddSprite(sp)
		default:
			return nil, r.error(kind, "unknown project form %q", keyword)
		}
	}
	return p, nil
}

// parseGlobal handles (global name initial-value?).
func (r *reader) parseGlobal(p *blocks.Project, l int) error {
	n := r.count(l)
	if n < 2 || n > 3 {
		return r.error(l, "global takes a name and an optional initial value")
	}
	name := l + 2
	if r.nodes[name].kind != symbolForm {
		return r.error(name, "global name must be a symbol")
	}
	if n == 2 {
		p.Globals[r.keep(name)] = value.Nothing{}
		return nil
	}
	v, err := r.constValue(name + 1)
	if err != nil {
		return err
	}
	p.Globals[r.keep(name)] = v
	return nil
}

// constValue evaluates the constant expressions allowed as initial values:
// literals and (list ...) of constants.
func (r *reader) constValue(i int) (value.Value, error) {
	switch r.nodes[i].kind {
	case stringForm:
		return value.Text(r.keep(i)), nil
	case symbolForm:
		n, err := r.lowerAtom(i)
		if err != nil {
			return nil, err
		}
		if lit, ok := n.(blocks.Literal); ok {
			return lit.Val, nil
		}
		return nil, r.error(i, "globals take constant initial values, not %q", r.text(i))
	}
	end := r.next(i)
	if end == i+1 {
		return nil, r.error(i, "empty form")
	}
	if r.nodes[i+1].kind == listForm || r.text(i+1) != "list" {
		return nil, r.error(i, "globals take constants or (list ...) initial values")
	}
	items := make([]value.Value, 0, r.count(i)-1)
	for j := i + 2; j < end; j = r.next(j) {
		v, err := r.constValue(j)
		if err != nil {
			return nil, err
		}
		items = append(items, v)
	}
	// AdoptSlice turns a long homogeneous literal (a data-file-sized
	// numeric global) into a columnar list in the shared AST.
	return value.AdoptSlice(items), nil
}

// parseDefine handles (define (name params...) reporter|command body-do).
func (r *reader) parseDefine(l int) (*blocks.CustomBlock, error) {
	if r.count(l) != 4 {
		return nil, r.error(l, "define takes (name params...), reporter|command, and a (do ...) body")
	}
	sig := l + 2
	if r.nodes[sig].kind != listForm || r.nodes[sig].size == 1 {
		return nil, r.error(sig, "define needs a (name params...) signature")
	}
	cb := &blocks.CustomBlock{}
	for j := sig + 1; j < r.next(sig); j = r.next(j) {
		if r.nodes[j].kind != symbolForm {
			return nil, r.error(j, "signature elements must be symbols")
		}
		if j == sig+1 {
			cb.Name = r.keep(j)
		} else {
			cb.Params = append(cb.Params, r.keep(j))
		}
	}
	kind := r.next(sig)
	if r.nodes[kind].kind == listForm || (r.text(kind) != "reporter" && r.text(kind) != "command") {
		return nil, r.error(kind, "define kind must be reporter or command")
	}
	cb.IsReporter = r.text(kind) == "reporter"
	body, err := r.lowerBody(kind+1, "define")
	if err != nil {
		return nil, err
	}
	cb.Body = body
	return cb, nil
}

// lowerBody lowers form i, the (do ...) body of a definition or a hat
// script, with slabs of its own (see slab).
func (r *reader) lowerBody(i int, what string) (*blocks.Script, error) {
	if r.nodes[i].kind == listForm {
		r.slab(i+2, r.next(i)) // the forms after the head
	}
	body, err := r.lower(i)
	if err != nil {
		return nil, err
	}
	sn, ok := body.(blocks.ScriptNode)
	if !ok {
		return nil, r.error(i, "%s body must be a (do ...) form", what)
	}
	return sn.Script, nil
}

// parseSprite handles (sprite "Name" (at x y)? (local name val?)* (when hat script)*).
func (r *reader) parseSprite(l int) (*blocks.Sprite, error) {
	if r.count(l) < 2 {
		return nil, r.error(l, "sprite needs a name")
	}
	name := l + 2
	if r.nodes[name].kind == listForm {
		return nil, r.error(name, "sprite name must be a string")
	}
	sp := blocks.NewSprite(r.keep(name))
	for form := name + 1; form < r.next(l); form = r.next(form) {
		if r.nodes[form].kind != listForm || r.nodes[form].size == 1 {
			return nil, r.error(form, "sprite bodies are (at ...), (local ...), or (when ...) forms")
		}
		kind := form + 1
		if r.nodes[kind].kind == listForm {
			return nil, r.error(kind, "expected a form keyword")
		}
		n := r.count(form)
		switch keyword := r.text(kind); keyword {
		case "at":
			if n != 3 {
				return nil, r.error(form, "at takes x and y")
			}
			x, errX := r.constValue(kind + 1)
			y, errY := r.constValue(r.next(kind + 1))
			if errX != nil || errY != nil {
				return nil, r.error(form, "at takes numeric constants")
			}
			xn, errX := value.ToNumber(x)
			yn, errY := value.ToNumber(y)
			if errX != nil || errY != nil {
				return nil, r.error(form, "at takes numeric constants")
			}
			sp.X, sp.Y = float64(xn), float64(yn)
		case "local":
			if n < 2 || n > 3 {
				return nil, r.error(form, "local takes a name and an optional initial value")
			}
			local := kind + 1
			if r.nodes[local].kind != symbolForm {
				return nil, r.error(local, "local name must be a symbol")
			}
			if n == 3 {
				v, err := r.constValue(local + 1)
				if err != nil {
					return nil, err
				}
				sp.Variables[r.keep(local)] = v
			} else {
				sp.Variables[r.keep(local)] = value.Nothing{}
			}
		case "when":
			if n != 3 {
				return nil, r.error(form, "when takes a hat and a (do ...) script")
			}
			hat, arg, err := r.parseHat(kind + 1)
			if err != nil {
				return nil, err
			}
			body, err := r.lowerBody(r.next(kind+1), "when")
			if err != nil {
				return nil, err
			}
			sp.AddScript(hat, arg, body)
		default:
			return nil, r.error(kind, "unknown sprite form %q", keyword)
		}
	}
	return sp, nil
}

func (r *reader) parseHat(i int) (blocks.HatKind, string, error) {
	if r.nodes[i].kind != listForm {
		switch text := r.text(i); text {
		case "green-flag":
			return blocks.HatGreenFlag, "", nil
		case "clone-start":
			return blocks.HatCloneStart, "", nil
		default:
			return 0, "", r.error(i, "unknown hat %q (green-flag, clone-start, (key ...), (receive ...))", text)
		}
	}
	if r.count(i) != 2 {
		return 0, "", r.error(i, "hat forms take one argument")
	}
	kind, arg := i+1, i+2
	if r.nodes[kind].kind == listForm {
		return 0, "", r.error(kind, "expected key or receive")
	}
	if r.nodes[arg].kind == listForm {
		return 0, "", r.error(arg, "hat argument must be a string")
	}
	switch r.text(kind) {
	case "key":
		return blocks.HatKeyPress, r.keep(arg), nil
	case "receive":
		return blocks.HatBroadcast, r.keep(arg), nil
	}
	return 0, "", r.error(kind, "unknown hat form %q", r.text(kind))
}
