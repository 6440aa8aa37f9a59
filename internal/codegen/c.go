package codegen

import (
	"fmt"
	"strings"

	"repro/internal/blocks"
	"repro/internal/value"
)

// This file is the Snap!→C mapping of Figures 15–16 and Listing 5. Lists
// map to the linked-list-of-int representation the paper generates (the
// node_t struct with an append function), array literals map to C array
// declarations, "item _ of _" maps to a[i - 1], and "length of _" maps to
// sizeof(a)/sizeof(a[0]) — all visible verbatim in Listing 5.

// CType is the static type assigned to a Snap! value when mapped to C —
// the dynamic-to-static type mapping §6.3 lists as required "to generate
// correct source code as well as to achieve good performance".
type CType int

// The inferred C types.
const (
	CUnknown CType = iota
	CInt
	CDouble
	CBool
	CCharPtr
	CIntArray
	CDoubleArray
	CListPtr // node_t*
)

// String renders the C spelling of the type.
func (t CType) String() string {
	switch t {
	case CInt:
		return "int"
	case CDouble:
		return "double"
	case CBool:
		return "int"
	case CCharPtr:
		return "char *"
	case CIntArray:
		return "int[]"
	case CDoubleArray:
		return "double[]"
	case CListPtr:
		return "node_t *"
	}
	return "/*unknown*/ double"
}

// InferType performs bottom-up static type inference over an expression
// node: number literals are int when integral, double otherwise; operators
// promote; predicates are boolean; text is char*. Variables resolve through
// the supplied environment (may be nil).
func InferType(n blocks.Node, env map[string]CType) CType {
	switch x := n.(type) {
	case blocks.Literal:
		switch v := x.Val.(type) {
		case value.Number:
			if v.IsInt() {
				return CInt
			}
			return CDouble
		case value.Bool:
			return CBool
		case value.Text:
			return CCharPtr
		case *value.List:
			elem := CInt
			for _, it := range v.Items() {
				if num, ok := it.(value.Number); !ok || !num.IsInt() {
					elem = CDouble
				}
			}
			if elem == CInt {
				return CIntArray
			}
			return CDoubleArray
		}
		return CUnknown
	case blocks.VarGet:
		if env != nil {
			if t, ok := env[Ident(x.Name)]; ok {
				return t
			}
		}
		return CUnknown
	case *blocks.Block:
		switch x.Op {
		case "reportSum", "reportDifference", "reportProduct", "reportModulus":
			a, b := InferType(x.Input(0), env), InferType(x.Input(1), env)
			if a == CInt && b == CInt {
				return CInt
			}
			return CDouble
		case "reportQuotient", "reportMonadic", "reportRandom":
			return CDouble
		case "reportRound", "reportListLength", "reportStringSize":
			return CInt
		case "reportLessThan", "reportEquals", "reportGreaterThan",
			"reportAnd", "reportOr", "reportNot", "reportListContainsItem":
			return CBool
		case "reportJoinWords", "reportLetter":
			return CCharPtr
		case "reportNewList":
			if len(x.Inputs) == 0 {
				return CListPtr
			}
			elem := CInt
			for _, in := range x.Inputs {
				switch InferType(in, env) {
				case CInt:
				case CDouble:
					elem = CDouble
				default:
					return CListPtr
				}
			}
			if elem == CInt {
				return CIntArray
			}
			return CDoubleArray
		case "reportNumbers", "reportMap", "reportParallelMap":
			return CListPtr
		case "reportListItem":
			lt := InferType(x.Input(1), env)
			switch lt {
			case CIntArray:
				return CInt
			case CDoubleArray:
				return CDouble
			}
			return CDouble
		}
	}
	return CUnknown
}

func cQuote(s string) string {
	r := strings.NewReplacer("\\", `\\`, "\"", `\"`, "\n", `\n`, "\t", `\t`)
	return `"` + r.Replace(s) + `"`
}

// CLang returns the Snap!→C mapping table of Figure 15.
func CLang() *Lang {
	return &Lang{
		Name:        "c",
		TrueLit:     "1",
		FalseLit:    "0",
		IndentUnit:  "    ",
		StmtSuffix:  ";",
		QuoteText:   cQuote,
		LineComment: "//",
		Expr: map[string]string{
			"reportSum":         "(<#1> + <#2>)",
			"reportDifference":  "(<#1> - <#2>)",
			"reportProduct":     "(<#1> * <#2>)",
			"reportQuotient":    "(<#1> / (double)(<#2>))",
			"reportModulus":     "(((<#1> % <#2>) + <#2>) % <#2>)",
			"reportRound":       "round(<#1>)",
			"reportLessThan":    "(<#1> < <#2>)",
			"reportEquals":      "(<#1> == <#2>)",
			"reportGreaterThan": "(<#1> > <#2>)",
			"reportAnd":         "(<#1> && <#2>)",
			"reportOr":          "(<#1> || <#2>)",
			"reportNot":         "(!<#1>)",
			"reportListItem":    "<$2>[<#1> - 1]",
			"reportListLength":  "(sizeof(<$1>)/sizeof(<$1>[0]))",
			"reportRandom":      "(<#1> + rand() % (int)(<#2> - <#1> + 1))",
		},
		Stmt: map[string]string{
			"doChangeVar": "<$1> += <#2>;",
			"doIf":        "if (<#1>) {\n<&2>\n}",
			"doIfElse":    "if (<#1>) {\n<&2>\n} else {\n<&3>\n}",
			"doRepeat":    "for (int _r = 0; _r < <#1>; _r++) {\n<&2>\n}",
			"doForever":   "while (1) {\n<&1>\n}",
			"doUntil":     "while (!(<#1>)) {\n<&2>\n}",
			"doFor":       "int <$1>; for (<$1> = <#2>; <$1> <= <#3>; <$1>++){\n<&4>\n}",
			"doAddToList": "append(<#1>, <$2>);",
			"doWait":      "sleep(<#1>);",
			"doReport":    "return <#1>;",
			"bubble":      `printf("%g\n", (double)(<#1>));`,
		},
		Custom: map[string]GenFunc{
			"reportMonadic":      cMonadic,
			"reportNewList":      cNewList,
			"doSetVar":           cSetVar,
			"doDeclareVariables": declareNothing,
		},
	}
}

func cMonadic(t *Translator, b *blocks.Block, _ int) (string, error) {
	fn, err := rawIdent(b.Input(0))
	if err != nil {
		return "", err
	}
	arg, err := t.Expr(b.Input(1))
	if err != nil {
		return "", err
	}
	switch fn {
	case "sqrt":
		return "sqrt(" + arg + ")", nil
	case "abs":
		return "fabs(" + arg + ")", nil
	case "floor":
		return "floor(" + arg + ")", nil
	case "ceiling":
		return "ceil(" + arg + ")", nil
	case "ln":
		return "log(" + arg + ")", nil
	case "log":
		return "log10(" + arg + ")", nil
	case "e_":
		return "exp(" + arg + ")", nil
	case "sin", "cos", "tan":
		return fn + "((" + arg + ") * M_PI / 180)", nil
	}
	return "", fmt.Errorf("no C mapping for function %q", fn)
}

// cNewList renders a literal list block as a C brace initializer; dynamic
// list construction must go through the node_t append path instead.
func cNewList(t *Translator, b *blocks.Block, _ int) (string, error) {
	parts := make([]string, len(b.Inputs))
	for i := range b.Inputs {
		lit, ok := b.Input(i).(blocks.Literal)
		if !ok {
			return "", fmt.Errorf("C arrays need literal elements; use add-to-list for dynamic lists")
		}
		s, err := t.literal(lit.Val)
		if err != nil {
			return "", err
		}
		parts[i] = s
	}
	return "{" + strings.Join(parts, ", ") + "}", nil
}

// CEmitter assembles whole C programs: it tracks variable declarations so
// "set a to (list 3 7 8)" emits `int a[] = {3, 7, 8};` the first time and a
// plain assignment afterwards — the declaration style of Listing 5.
type CEmitter struct {
	t        *Translator
	declared map[string]CType
	// needsList is set when the program touches the node_t list type.
	needsList bool
	// needsMath/needsUnistd/needsOMP widen the include set.
	needsMath, needsUnistd, needsOMP bool
}

// NewCEmitter builds an emitter around a fresh C translator.
func NewCEmitter() *CEmitter {
	e := &CEmitter{declared: map[string]CType{}}
	lang := CLang()
	lang.Custom["doSetVar"] = e.setVar
	e.t = New(lang)
	return e
}

// cSetVar is the stateless fallback (plain assignment) used when a bare
// CLang translator is driven without an emitter.
func cSetVar(t *Translator, b *blocks.Block, indent int) (string, error) {
	name, err := rawIdent(b.Input(0))
	if err != nil {
		return "", err
	}
	rhs, err := t.Expr(b.Input(1))
	if err != nil {
		return "", err
	}
	return strings.Repeat(t.Lang.IndentUnit, indent) + name + " = " + rhs + ";", nil
}

// setVar emits a declaration on first assignment, choosing the static type
// by inference (§6.3's dynamic→static type mapping).
func (e *CEmitter) setVar(t *Translator, b *blocks.Block, indent int) (string, error) {
	name, err := rawIdent(b.Input(0))
	if err != nil {
		return "", err
	}
	ind := strings.Repeat(t.Lang.IndentUnit, indent)
	rhsNode := b.Input(1)
	lhs := name
	if _, seen := e.declared[name]; !seen {
		ty := InferType(rhsNode, e.declared)
		e.declared[name] = ty
		switch ty {
		case CIntArray:
			lhs = "int " + name + "[]"
		case CDoubleArray:
			lhs = "double " + name + "[]"
		case CListPtr:
			e.needsList = true
			lhs = "node_t *" + name
			// An empty or dynamic list becomes the malloc'd list head
			// of Listing 5.
			if isEmptyListLiteral(rhsNode) {
				return ind + lhs + " = (node_t *) malloc(sizeof(node_t));", nil
			}
		case CCharPtr:
			lhs = "char *" + name
		case CBool, CInt:
			lhs = "int " + name
		default:
			lhs = "double " + name
		}
	}
	rhs, err := t.Expr(rhsNode)
	if err != nil {
		return "", err
	}
	return ind + lhs + " = " + rhs + ";", nil
}

func isEmptyListLiteral(n blocks.Node) bool {
	if b, ok := n.(*blocks.Block); ok {
		return b.Op == "reportNewList" && len(b.Inputs) == 0
	}
	if l, ok := n.(blocks.Literal); ok {
		if lst, ok2 := l.Val.(*value.List); ok2 {
			return lst.Len() == 0
		}
	}
	return false
}

// cListSupport is the node_t machinery of Listing 5, verbatim in shape.
const cListSupport = `typedef struct node {
    int data;
    struct node *next;
} node_t;

void append(int d, node_t *p) {
    while (p->next != NULL)
        p = p->next;
    p->next = (node_t *) malloc(sizeof(node_t));
    p = p->next;
    p->data = d;
    p->next = NULL;
}
`

// Program translates a whole script into a complete, compilable C program —
// the output of the "code of" block under the "map to C" mapping
// (Figure 16 → Listing 5).
func (e *CEmitter) Program(s *blocks.Script) (string, error) {
	scan(s, e)
	body, err := e.t.Script(s, 1)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("#include <stdio.h>\n#include <stdlib.h>\n")
	if e.needsMath {
		b.WriteString("#include <math.h>\n")
	}
	if e.needsUnistd {
		b.WriteString("#include <unistd.h>\n")
	}
	if e.needsOMP {
		b.WriteString("#include <omp.h>\n")
	}
	b.WriteString("\n")
	if e.needsList {
		b.WriteString(cListSupport)
		b.WriteString("\n")
	}
	b.WriteString("int main()\n{\n")
	if body != "" {
		b.WriteString(body)
		b.WriteString("\n")
	}
	b.WriteString("    return (0);\n}\n")
	return b.String(), nil
}

// scan walks the script to detect which support code the program needs.
func scan(s *blocks.Script, e *CEmitter) {
	var walk func(n blocks.Node)
	walk = func(n blocks.Node) {
		switch x := n.(type) {
		case *blocks.Block:
			switch x.Op {
			case "doAddToList", "reportNewList":
				e.needsList = true
			case "reportMonadic", "reportRound":
				e.needsMath = true
			case "doWait":
				e.needsUnistd = true
			}
			for _, in := range x.Inputs {
				walk(in)
			}
		case *blocks.Script:
			for _, blk := range x.Blocks {
				walk(blk)
			}
		case blocks.ScriptNode:
			walk(x.Script)
		case blocks.RingNode:
			walk(x.Body)
		}
	}
	walk(s)
}

// Figure16Script is the Snap! script of Figure 16: the non-parallel map
// example written out explicitly "so that the code translation is easier
// to follow" — build list a, empty list b, loop i over a appending
// (item i of a) × 10 to b.
func Figure16Script() *blocks.Script {
	return blocks.NewScript(
		blocks.DeclareLocal("a", "b"),
		blocks.SetVar("a", blocks.ListOf(blocks.Num(3), blocks.Num(7), blocks.Num(8))),
		blocks.SetVar("b", blocks.ListOf()),
		blocks.For("i", blocks.Num(1), blocks.LengthOf(blocks.Var("a")),
			blocks.Body(
				blocks.AddToList(
					blocks.Product(blocks.ItemOf(blocks.Var("i"), blocks.Var("a")), blocks.Num(10)),
					blocks.Var("b")),
			)),
	)
}

// Listing5 generates the C translation of Figure 16 — the paper's
// Listing 5.
func Listing5() (string, error) {
	return NewCEmitter().Program(Figure16Script())
}
