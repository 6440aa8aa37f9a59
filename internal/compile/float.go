package compile

import (
	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
)

// The float compiler gives a numeric ring an unboxed form: a body built
// only from number literals, the ring's own parameters or implicit slots,
// and the pure entries with a number form (interp.PureOp.Num2) compiles to
// a closure over float64s, so a kernel over a float column boxes nothing
// per element. Anything else is refused and the caller keeps the boxed
// kernel. Every entry's boxed Fn is its Num2 behind the number coercion,
// and a float argument coerces to itself, so the unboxed form reports what
// the boxed form reports on value.Num(x): the same error wording, and the
// same value except the sign of a zero, which value.Num drops when it
// boxes (see FloatMapperRing).

// fexpr is one compiled float expression. x and y are the call's first
// two arguments; a one-argument call never reads y.
type fexpr func(x, y float64) (float64, error)

// floatBody compiles a ring body for calls with nargs (1 or 2) float
// arguments. Arguments are bound as the boxed compiler binds them: a
// parameter reads its position, or 0 (Nothing as a number) when the call
// has no argument there; an implicit slot reads the lone argument of a
// one-argument call, else its own position. Two lone bodies are refused
// because the ring reports them boxed as they are, not as a number: a
// parameter with no argument (Nothing, which only an arithmetic input
// reads as 0) and a literal (a typed -0 keeps its sign).
func floatBody(params []string, body blocks.Node, nargs int) (fexpr, bool) {
	switch x := body.(type) {
	case blocks.Literal:
		return nil, false
	case blocks.VarGet:
		if paramIndex(params, x.Name) >= nargs {
			return nil, false
		}
	}
	slots := 0
	return floatNode(body, params, nargs, &slots)
}

func floatNode(n blocks.Node, params []string, nargs int, slots *int) (fexpr, bool) {
	switch x := n.(type) {
	case blocks.Literal:
		c, ok := x.Val.(value.Number)
		if !ok {
			return nil, false
		}
		return floatConst(float64(c)), true
	case blocks.EmptySlot:
		if len(params) > 0 {
			return nil, false
		}
		idx := *slots
		*slots++
		if nargs == 1 {
			idx = 0
		}
		return floatArg(idx, nargs), true
	case blocks.VarGet:
		i := paramIndex(params, x.Name)
		if i < 0 {
			return nil, false
		}
		return floatArg(i, nargs), true
	case *blocks.Block:
		i, ok := interp.PureOpIndex(x.Op)
		if !ok || interp.PureOps[i].Num2 == nil || len(x.Inputs) != 2 {
			return nil, false
		}
		a, ok := floatNode(x.Input(0), params, nargs, slots)
		if !ok {
			return nil, false
		}
		b, ok := floatNode(x.Input(1), params, nargs, slots)
		if !ok {
			return nil, false
		}
		name, f := x.Op, interp.PureOps[i].Num2
		return func(x, y float64) (float64, error) {
			av, err := a(x, y)
			if err != nil {
				return 0, err
			}
			bv, err := b(x, y)
			if err != nil {
				return 0, err
			}
			r, err := f(av, bv)
			if err != nil {
				return 0, wrapOp(name, err)
			}
			return r, nil
		}, true
	}
	return nil, false
}

func floatConst(c float64) fexpr {
	return func(float64, float64) (float64, error) { return c, nil }
}

// floatArg reads argument idx of an nargs-argument call.
func floatArg(idx, nargs int) fexpr {
	switch {
	case idx >= nargs:
		return floatConst(0)
	case idx == 0:
		return func(x, _ float64) (float64, error) { return x, nil }
	}
	return func(_, y float64) (float64, error) { return y, nil }
}

// FloatMapFn is a keyed map kernel over a float column: one float in,
// one (key, value) pair out. Like MapFn it is safe for concurrent calls.
type FloatMapFn func(x float64) (string, float64, error)

// FloatMapperRing compiles a shipped map ring into a float-column map
// kernel, the unboxed twin of MapperRing: on every float x it reports
// what MapperRing reports on value.Num(x). A number never keys itself, so
// every pair lands on the shared "" key. ok is false unless the whole
// body has a float form. Unmetered, like UnaryRing.
func FloatMapperRing(r *blocks.Ring) (FloatMapFn, bool) {
	if r == nil || r.Env != nil {
		return nil, false
	}
	f, ok := floatBody(r.Params, r.Body, 1)
	if !ok {
		return nil, false
	}
	return func(x float64) (string, float64, error) {
		v, err := f(x, 0)
		if err != nil {
			return "", 0, err
		}
		if v == 0 {
			v = 0 // value.Num boxes -0 as 0
		}
		return "", v, nil
	}, true
}

// foldFloats is compileCombine's fold over a float column with the
// inner ring's two-argument float form: the boxed fold's value and error,
// without boxing the accumulator or the items.
func foldFloats(xs []float64, f fexpr) (value.Value, error) {
	if len(xs) == 0 {
		return value.Number(0), nil
	}
	acc := xs[0]
	for _, x := range xs[1:] {
		var err error
		if acc, err = f(acc, x); err != nil {
			return nil, err
		}
	}
	return value.Num(acc), nil
}
