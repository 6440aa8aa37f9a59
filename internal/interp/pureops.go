package interp

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/value"
)

// PureOp is one pure primitive: a block whose meaning is a function of its
// evaluated inputs alone — no process, frame, stage, clock or random
// stream. Each pure primitive is declared exactly once, in PureOps, and
// every execution tier consumes that one declaration: the tree walker
// registers an adapter per entry, the bytecode machine's operator op
// indexes the table, compiled kernels apply Fn to their evaluated inputs,
// and the linter reads the arity. A block therefore has the same value,
// arity and error wording on every tier by construction.
type PureOp struct {
	Name string
	// Arity is the exact input count, or the minimum when Variadic.
	Arity    int
	Variadic bool
	// Cmd marks a command block: it reports no value.
	Cmd bool
	// Fn applies the block to its evaluated inputs. It reads args only
	// during the call (callers pass reused buffers) and returns the
	// block's own failure unwrapped; each tier prefixes it with Name.
	Fn func(args []value.Value) (value.Value, error)
	// Num2, set on the binary arithmetic entries, is the block on two
	// numbers: the unboxed form compiled kernels run over float columns.
	// Fn is Num2 behind the shared number coercion (see arith), so the
	// two forms cannot disagree on a value or an error.
	Num2 func(a, b float64) (float64, error)
}

// Accepts reports whether a block with n inputs matches the arity.
func (o *PureOp) Accepts(n int) bool {
	if o.Variadic {
		return n >= o.Arity
	}
	return n == o.Arity
}

// PureOps is the pure-primitive table. Treat it as read-only: lowered
// bytecode programs refer to entries by index.
var PureOps = []PureOp{
	arith("reportSum", func(a, b float64) (float64, error) { return a + b, nil }),
	arith("reportDifference", func(a, b float64) (float64, error) { return a - b, nil }),
	arith("reportProduct", func(a, b float64) (float64, error) { return a * b, nil }),
	arith("reportQuotient", numQuotient),
	arith("reportModulus", numModulus),
	{Name: "reportRound", Arity: 1, Fn: opRound},
	{Name: "reportMonadic", Arity: 2, Fn: opMonadic},
	{Name: "reportLessThan", Arity: 2, Fn: opLessThan},
	{Name: "reportEquals", Arity: 2, Fn: opEquals},
	{Name: "reportGreaterThan", Arity: 2, Fn: opGreaterThan},
	{Name: "reportAnd", Arity: 2, Fn: logic(func(a, b bool) bool { return a && b })},
	{Name: "reportOr", Arity: 2, Fn: logic(func(a, b bool) bool { return a || b })},
	{Name: "reportNot", Arity: 1, Fn: opNot},
	{Name: "reportIfElse", Arity: 3, Fn: opIfElse},
	{Name: "reportJoinWords", Arity: 1, Variadic: true, Fn: opJoin},
	{Name: "reportLetter", Arity: 2, Fn: opLetter},
	{Name: "reportStringSize", Arity: 1, Fn: opStringSize},
	{Name: "reportTextSplit", Arity: 2, Fn: opTextSplit},
	{Name: "reportNewList", Arity: 0, Variadic: true, Fn: opNewList},
	{Name: "reportNumbers", Arity: 2, Fn: opNumbers},
	{Name: "reportListItem", Arity: 2, Fn: opListItem},
	{Name: "reportListLength", Arity: 1, Fn: opListLength},
	{Name: "reportListContainsItem", Arity: 2, Fn: opListContains},
	{Name: "doAddToList", Arity: 2, Cmd: true, Fn: opAddToList},
	{Name: "doDeleteFromList", Arity: 2, Cmd: true, Fn: opDeleteFromList},
	{Name: "doInsertInList", Arity: 3, Cmd: true, Fn: opInsertInList},
	{Name: "doReplaceInList", Arity: 3, Cmd: true, Fn: opReplaceInList},
}

var pureOpIndex = func() map[string]int {
	m := make(map[string]int, len(PureOps))
	for i, o := range PureOps {
		m[o.Name] = i
	}
	return m
}()

// PureOpIndex locates the PureOps entry implementing a selector.
func PureOpIndex(name string) (int, bool) {
	i, ok := pureOpIndex[name]
	return i, ok
}

func init() {
	for i := range PureOps {
		fn := PureOps[i].Fn
		RegisterPrimitive(PureOps[i].Name, func(_ *Process, ctx *Context) (value.Value, Control, error) {
			v, err := fn(ctx.Inputs)
			return v, Done, err
		})
	}
}

// AsList is the list-input check every tier shares.
func AsList(v value.Value) (*value.List, error) {
	if l, ok := v.(*value.List); ok {
		return l, nil
	}
	return nil, fmt.Errorf("expecting a list but getting a %s", v.Kind())
}

func numbers2(args []value.Value) (float64, float64, error) {
	a, err := value.ToNumber(args[0])
	if err != nil {
		return 0, 0, err
	}
	b, err := value.ToNumber(args[1])
	if err != nil {
		return 0, 0, err
	}
	return float64(a), float64(b), nil
}

// arith declares a binary arithmetic entry from its number form: Fn
// coerces both inputs with numbers2 and boxes Num2's result.
func arith(name string, num2 func(a, b float64) (float64, error)) PureOp {
	return PureOp{Name: name, Arity: 2, Num2: num2, Fn: func(args []value.Value) (value.Value, error) {
		a, b, err := numbers2(args)
		if err != nil {
			return nil, err
		}
		r, err := num2(a, b)
		if err != nil {
			return nil, err
		}
		return value.Num(r), nil
	}}
}

var (
	errDivZero = errors.New("division by zero")
	errModZero = errors.New("modulus by zero")
)

func numQuotient(a, b float64) (float64, error) {
	if b == 0 {
		return 0, errDivZero
	}
	return a / b, nil
}

func numModulus(a, b float64) (float64, error) {
	if b == 0 {
		return 0, errModZero
	}
	// Snap!'s mod matches the sign of the divisor.
	m := math.Mod(a, b)
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m, nil
}

func opRound(args []value.Value) (value.Value, error) {
	a, err := value.ToNumber(args[0])
	if err != nil {
		return nil, err
	}
	return value.Num(math.Round(float64(a))), nil
}

func opMonadic(args []value.Value) (value.Value, error) {
	fn := strings.ToLower(args[0].String())
	a, err := value.ToNumber(args[1])
	if err != nil {
		return nil, err
	}
	x := float64(a)
	var r float64
	switch fn {
	case "sqrt":
		if x < 0 {
			return nil, fmt.Errorf("square root of a negative number")
		}
		r = math.Sqrt(x)
	case "abs":
		r = math.Abs(x)
	case "floor":
		r = math.Floor(x)
	case "ceiling":
		r = math.Ceil(x)
	case "sin":
		r = math.Sin(x * math.Pi / 180)
	case "cos":
		r = math.Cos(x * math.Pi / 180)
	case "tan":
		r = math.Tan(x * math.Pi / 180)
	case "asin":
		r = math.Asin(x) * 180 / math.Pi
	case "acos":
		r = math.Acos(x) * 180 / math.Pi
	case "atan":
		r = math.Atan(x) * 180 / math.Pi
	case "ln":
		r = math.Log(x)
	case "log":
		r = math.Log10(x)
	case "e^":
		r = math.Exp(x)
	case "10^":
		r = math.Pow(10, x)
	default:
		return nil, fmt.Errorf("unknown function %q", fn)
	}
	return value.Num(r), nil
}

func opLessThan(args []value.Value) (value.Value, error) {
	lt, err := value.Less(args[0], args[1])
	if err != nil {
		return nil, err
	}
	return value.BoolVal(lt), nil
}

func opEquals(args []value.Value) (value.Value, error) {
	return value.BoolVal(value.Equal(args[0], args[1])), nil
}

func opGreaterThan(args []value.Value) (value.Value, error) {
	gt, err := value.Greater(args[0], args[1])
	if err != nil {
		return nil, err
	}
	return value.BoolVal(gt), nil
}

// logic applies a boolean connective. Both inputs are already evaluated:
// reportAnd and reportOr are eager, not short-circuiting, like every
// reporter input slot.
func logic(f func(a, b bool) bool) func([]value.Value) (value.Value, error) {
	return func(args []value.Value) (value.Value, error) {
		a, err := value.ToBool(args[0])
		if err != nil {
			return nil, err
		}
		b, err := value.ToBool(args[1])
		if err != nil {
			return nil, err
		}
		return value.BoolVal(f(bool(a), bool(b))), nil
	}
}

func opNot(args []value.Value) (value.Value, error) {
	a, err := value.ToBool(args[0])
	if err != nil {
		return nil, err
	}
	return value.BoolVal(bool(!a)), nil
}

// opIfElse is the reporter-shaped conditional ("if _ then _ else _"):
// Snap!'s hexagonal reporter that picks one of two values. Both branches
// are evaluated before the block applies, the same eager semantics as
// reportAnd/reportOr.
func opIfElse(args []value.Value) (value.Value, error) {
	cond, err := value.ToBool(args[0])
	if err != nil {
		return nil, err
	}
	if cond {
		return args[1], nil
	}
	return args[2], nil
}

func opJoin(args []value.Value) (value.Value, error) {
	total := 0
	for _, v := range args {
		total += len(v.String())
	}
	if err := checkTextLen(total); err != nil {
		return nil, err
	}
	var b strings.Builder
	b.Grow(total)
	for _, v := range args {
		b.WriteString(v.String())
	}
	return value.Text(b.String()), nil
}

func opLetter(args []value.Value) (value.Value, error) {
	i, err := value.ToInt(args[0])
	if err != nil {
		return nil, err
	}
	s := []rune(args[1].String())
	if i < 1 || i > len(s) {
		return value.Str(""), nil
	}
	return value.Str(string(s[i-1])), nil
}

func opStringSize(args []value.Value) (value.Value, error) {
	return value.NumInt(len([]rune(args[0].String()))), nil
}

func opTextSplit(args []value.Value) (value.Value, error) {
	text := args[0].String()
	delim := args[1].String()
	var parts []string
	switch delim {
	case "whitespace", " ":
		parts = strings.Fields(text)
	case "":
		for _, r := range text {
			parts = append(parts, string(r))
		}
	case "line":
		parts = strings.Split(text, "\n")
	default:
		parts = strings.Split(text, delim)
	}
	if err := checkListLen(len(parts)); err != nil {
		return nil, err
	}
	return value.FromStrings(parts), nil
}

func opNewList(args []value.Value) (value.Value, error) {
	return value.NewList(args...), nil
}

func opNumbers(args []value.Value) (value.Value, error) {
	from, to, err := numbers2(args)
	if err != nil {
		return nil, err
	}
	if err := CheckNumbersBounds(from, to); err != nil {
		return nil, err
	}
	step := 1.0
	if from > to {
		step = -1
	}
	return value.Range(from, to, step), nil
}

func opListItem(args []value.Value) (value.Value, error) {
	i, err := value.ToInt(args[0])
	if err != nil {
		return nil, err
	}
	l, err := AsList(args[1])
	if err != nil {
		return nil, err
	}
	return l.Item(i)
}

func opListLength(args []value.Value) (value.Value, error) {
	l, err := AsList(args[0])
	if err != nil {
		return nil, err
	}
	return value.Number(float64(l.Len())), nil
}

func opListContains(args []value.Value) (value.Value, error) {
	l, err := AsList(args[0])
	if err != nil {
		return nil, err
	}
	return value.Bool(l.Contains(args[1])), nil
}

func opAddToList(args []value.Value) (value.Value, error) {
	l, err := AsList(args[1])
	if err != nil {
		return nil, err
	}
	if err := checkListLen(l.Len() + 1); err != nil {
		return nil, err
	}
	l.Add(args[0])
	return nil, nil
}

func opDeleteFromList(args []value.Value) (value.Value, error) {
	l, err := AsList(args[1])
	if err != nil {
		return nil, err
	}
	i, err := value.ToInt(args[0])
	if err != nil {
		return nil, err
	}
	return nil, l.DeleteAt(i)
}

func opInsertInList(args []value.Value) (value.Value, error) {
	l, err := AsList(args[2])
	if err != nil {
		return nil, err
	}
	i, err := value.ToInt(args[1])
	if err != nil {
		return nil, err
	}
	if err := checkListLen(l.Len() + 1); err != nil {
		return nil, err
	}
	return nil, l.InsertAt(i, args[0])
}

func opReplaceInList(args []value.Value) (value.Value, error) {
	l, err := AsList(args[1])
	if err != nil {
		return nil, err
	}
	i, err := value.ToInt(args[0])
	if err != nil {
		return nil, err
	}
	return nil, l.SetItem(i, args[2])
}
