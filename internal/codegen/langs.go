package codegen

import (
	"fmt"
	"strconv"

	"repro/internal/blocks"
)

// This file holds the JavaScript, Python, and Go mapping tables — "to
// change the back-end language to which the Snap! scripts are being
// mapped ... the 'map to C' block is changed to a 'map to JavaScript'
// block" (§6.2). Each table is one such mapping block.

func jsQuote(s string) string {
	return strconv.Quote(s)
}

// jsLambda wraps a translated ring body as a JavaScript function of x.
const jsLambda = "function (x) { return %s; }"

// JSLang returns the Snap!→JavaScript mapping. Its parallelMap mapping
// emits Parallel.js code in the exact shape of the paper's Listing 1.
func JSLang() *Lang {
	return &Lang{
		Name:        "js",
		TrueLit:     "true",
		FalseLit:    "false",
		IndentUnit:  "    ",
		StmtSuffix:  ";",
		QuoteText:   jsQuote,
		LineComment: "//",
		Expr: map[string]string{
			"reportSum":              "(<#1> + <#2>)",
			"reportDifference":       "(<#1> - <#2>)",
			"reportProduct":          "(<#1> * <#2>)",
			"reportQuotient":         "(<#1> / <#2>)",
			"reportModulus":          "(((<#1> % <#2>) + <#2>) % <#2>)",
			"reportRound":            "Math.round(<#1>)",
			"reportLessThan":         "(<#1> < <#2>)",
			"reportEquals":           "(<#1> == <#2>)",
			"reportGreaterThan":      "(<#1> > <#2>)",
			"reportAnd":              "(<#1> && <#2>)",
			"reportOr":               "(<#1> || <#2>)",
			"reportNot":              "(!<#1>)",
			"reportJoinWords":        "(String(<#1>) + String(<#2>))",
			"reportListItem":         "<#2>[<#1> - 1]",
			"reportListLength":       "<#1>.length",
			"reportListContainsItem": "<#1>.includes(<#2>)",
			"reportStringSize":       "String(<#1>).length",
			"reportTextSplit":        "String(<#1>).split(<#2>)",
		},
		Stmt: map[string]string{
			"doSetVar":    "let <$1> = <#2>;",
			"doChangeVar": "<$1> += <#2>;",
			"doIf":        "if (<#1>) {\n<&2>\n}",
			"doIfElse":    "if (<#1>) {\n<&2>\n} else {\n<&3>\n}",
			"doRepeat":    "for (let _r = 0; _r < <#1>; _r++) {\n<&2>\n}",
			"doForever":   "while (true) {\n<&1>\n}",
			"doUntil":     "while (!(<#1>)) {\n<&2>\n}",
			"doFor":       "for (let <$1> = <#2>; <$1> <= <#3>; <$1>++) {\n<&4>\n}",
			"doAddToList": "<$2>.push(<#1>);",
			"doReport":    "return <#1>;",
			"bubble":      "console.log(<#1>);",
		},
		Custom: map[string]GenFunc{
			"doDeclareVariables": declareNothing,
			"reportNewList":      listCtor("[", "]"),
			"reportMap":          mapCall(jsLambda, "%[2]s.map(%[1]s)"),
			"reportParallelMap":  jsParallelMap,
		},
	}
}

// jsParallelMap emits the Parallel.js idiom of Listing 1:
//
//	new Parallel(list, {maxWorkers: n}).map(fn)
func jsParallelMap(t *Translator, b *blocks.Block, _ int) (string, error) {
	fn, err := ringAsLambda(t, b.Input(0), jsLambda)
	if err != nil {
		return "", err
	}
	list, err := t.Expr(b.Input(1))
	if err != nil {
		return "", err
	}
	workersExpr := "navigator.hardwareConcurrency || 4"
	if _, empty := b.Input(2).(blocks.EmptySlot); !empty {
		workersExpr, err = t.Expr(b.Input(2))
		if err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("new Parallel(%s, {maxWorkers: %s}).map(%s)", list, workersExpr, fn), nil
}

func pyQuote(s string) string {
	return strconv.Quote(s)
}

// PythonLang returns the Snap!→Python mapping.
func PythonLang() *Lang {
	return &Lang{
		Name:        "python",
		TrueLit:     "True",
		FalseLit:    "False",
		IndentUnit:  "    ",
		StmtSuffix:  "",
		EmptyBody:   "pass",
		QuoteText:   pyQuote,
		LineComment: "#",
		Expr: map[string]string{
			"reportSum":              "(<#1> + <#2>)",
			"reportDifference":       "(<#1> - <#2>)",
			"reportProduct":          "(<#1> * <#2>)",
			"reportQuotient":         "(<#1> / <#2>)",
			"reportModulus":          "(<#1> % <#2>)",
			"reportRound":            "round(<#1>)",
			"reportLessThan":         "(<#1> < <#2>)",
			"reportEquals":           "(<#1> == <#2>)",
			"reportGreaterThan":      "(<#1> > <#2>)",
			"reportAnd":              "(<#1> and <#2>)",
			"reportOr":               "(<#1> or <#2>)",
			"reportNot":              "(not <#1>)",
			"reportJoinWords":        "(str(<#1>) + str(<#2>))",
			"reportListItem":         "<#2>[<#1> - 1]",
			"reportListLength":       "len(<#1>)",
			"reportListContainsItem": "(<#2> in <#1>)",
			"reportStringSize":       "len(str(<#1>))",
			"reportTextSplit":        "str(<#1>).split(<#2>)",
			"reportNumbers":          "list(range(<#1>, <#2> + 1))",
		},
		Stmt: map[string]string{
			"doSetVar":    "<$1> = <#2>",
			"doChangeVar": "<$1> += <#2>",
			"doIf":        "if <#1>:\n<&2>",
			"doIfElse":    "if <#1>:\n<&2>\nelse:\n<&3>",
			"doRepeat":    "for _r in range(<#1>):\n<&2>",
			"doForever":   "while True:\n<&1>",
			"doUntil":     "while not (<#1>):\n<&2>",
			"doFor":       "for <$1> in range(<#2>, <#3> + 1):\n<&4>",
			"doForEach":   "for <$1> in <#2>:\n<&3>",
			"doAddToList": "<$2>.append(<#1>)",
			"doReport":    "return <#1>",
			"bubble":      "print(<#1>)",
		},
		Custom: map[string]GenFunc{
			"doDeclareVariables": declareNothing,
			"reportNewList":      listCtor("[", "]"),
			"reportMap":          mapCall("%s", "[%[1]s for x in %[2]s]"),
			"reportParallelMap":  mapCall("lambda x: %s", "multiprocessing.Pool().map(%s, %s)"),
		},
	}
}

// GoLang returns the Snap!→Go mapping — a language the paper did not ship
// but whose mapping "can easily be specified by the user by creating the
// corresponding mapping block".
func GoLang() *Lang {
	return &Lang{
		Name:        "go",
		TrueLit:     "true",
		FalseLit:    "false",
		IndentUnit:  "\t",
		StmtSuffix:  "",
		QuoteText:   strconv.Quote,
		LineComment: "//",
		Expr: map[string]string{
			"reportSum":         "(<#1> + <#2>)",
			"reportDifference":  "(<#1> - <#2>)",
			"reportProduct":     "(<#1> * <#2>)",
			"reportQuotient":    "(<#1> / <#2>)",
			"reportRound":       "math.Round(<#1>)",
			"reportLessThan":    "(<#1> < <#2>)",
			"reportEquals":      "(<#1> == <#2>)",
			"reportGreaterThan": "(<#1> > <#2>)",
			"reportAnd":         "(<#1> && <#2>)",
			"reportOr":          "(<#1> || <#2>)",
			"reportNot":         "(!<#1>)",
			"reportListItem":    "<#2>[<#1>-1]",
			"reportListLength":  "len(<#1>)",
		},
		Stmt: map[string]string{
			"doSetVar":    "<$1> := <#2>",
			"doChangeVar": "<$1> += <#2>",
			"doIf":        "if <#1> {\n<&2>\n}",
			"doIfElse":    "if <#1> {\n<&2>\n} else {\n<&3>\n}",
			"doRepeat":    "for _r := 0; _r < <#1>; _r++ {\n<&2>\n}",
			"doForever":   "for {\n<&1>\n}",
			"doUntil":     "for !(<#1>) {\n<&2>\n}",
			"doFor":       "for <$1> := <#2>; <$1> <= <#3>; <$1>++ {\n<&4>\n}",
			"doAddToList": "<$2> = append(<$2>, <#1>)",
			"doReport":    "return <#1>",
			"bubble":      "fmt.Println(<#1>)",
		},
		Custom: map[string]GenFunc{
			"doDeclareVariables": declareNothing,
			"reportNewList":      listCtor("[]float64{", "}"),
		},
	}
}
