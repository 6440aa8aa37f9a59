package codegen

import (
	"fmt"
	"strings"

	"repro/internal/blocks"
	"repro/internal/value"
)

// This file implements §6's Snap!→OpenMP pipeline: the mapReduce block is
// translated to a text file of functions carrying OpenMP pragma
// annotations (Listing 6), a driver containing main (Listing 7), the kvp.h
// record header, and — per §6.3's future-work list, which we implement —
// the Makefile that automates compilation/linking and an outline batch
// submission script for supercomputer schedulers.

// Listing3 is the paper's sequential hello-world C program.
const Listing3 = `void main() {
    int ID = 0;
    printf(" hello(%d), ", ID);
    printf(" world(%d) \n", ID);
}
`

// Listing4 is the paper's OpenMP version: "by adding a simple directive
// (or pragma) and a function call to obtain the thread ID, the previous
// example readily compiles into a parallel program."
const Listing4 = `#include "omp.h"
void main() {
    #pragma omp parallel
    {
        int ID = omp_get_thread_num();
        printf(" hello(%d), ", ID);
        printf(" world(%d) \n", ID);
    }
}
`

// KVPHeader is kvp.h: the key/value record both Listing 6 and Listing 7
// include.
const KVPHeader = `#ifndef KVP_H
#define KVP_H

#include <stddef.h>

#define MAXKEY 64

typedef struct KVP {
    char  key[MAXKEY];
    float val;
} KVP;

int map(KVP *in, KVP *out);
int reduce(KVP *in, KVP *out);
int compare(const void *a, const void *b);
int input(int *nkvp, KVP **list);
int output(int nkvp, KVP *list);

#endif
`

// ReduceKind classifies the reduce ring into one of the reducer shapes the
// generator knows how to emit.
type ReduceKind int

// The recognized reducers.
const (
	ReduceUnknown ReduceKind = iota
	ReduceAvg                // quotient of a sum-combine by the length
	ReduceSum                // sum-combine
	ReduceCount              // length of the value list
)

// String names the reducer.
func (k ReduceKind) String() string {
	switch k {
	case ReduceAvg:
		return "avg"
	case ReduceSum:
		return "sum"
	case ReduceCount:
		return "count"
	}
	return "unknown"
}

// ClassifyReducer pattern-matches a reduce ring's body against the shapes
// the mapReduce examples use: average (Figure 20), sum (word count), and
// count.
func ClassifyReducer(r blocks.RingNode) ReduceKind {
	body, ok := r.Body.(*blocks.Block)
	if !ok {
		return ReduceUnknown
	}
	switch body.Op {
	case "reportQuotient":
		num, okN := body.Input(0).(*blocks.Block)
		den, okD := body.Input(1).(*blocks.Block)
		if okN && okD && isSumCombine(num) && den.Op == "reportListLength" {
			return ReduceAvg
		}
	case "reportCombine":
		if isSumCombine(body) {
			return ReduceSum
		}
	case "reportListLength":
		return ReduceCount
	}
	return ReduceUnknown
}

func isSumCombine(b *blocks.Block) bool {
	if b.Op != "reportCombine" {
		return false
	}
	ring, ok := b.Input(1).(blocks.RingNode)
	if !ok {
		return false
	}
	inner, ok := ring.Body.(*blocks.Block)
	return ok && inner.Op == "reportSum"
}

// MapperCode translates a map ring's body into the C expression of the
// generated map function, with the ring's argument spelled "in->val" —
// producing exactly Figure 19's `out->val = ((5 * (in->val - 32)) / 9);`
// for the Fahrenheit-to-Celsius ring.
func MapperCode(r blocks.RingNode) (string, error) {
	return ringExpr(CLang(), r, "in->val")
}

// Listing6 generates the combined map and reduce functions file — the
// paper's Listing 6, shape-for-shape, including the recursive avg() helper
// exactly as the paper prints it. (The paper's avg() mis-parenthesizes the
// running average and its reduce calls avg(in->val) on a scalar; both are
// schematic in the original. The display artifact reproduces them
// faithfully; RunnableProgram below is the version that actually compiles
// and computes — the paper-vs-built delta is recorded in EXPERIMENTS.md.)
func Listing6(mapExpr string, kind ReduceKind) string {
	var reduceBody string
	switch kind {
	case ReduceAvg:
		reduceBody = "out->val = avg(in->val);"
	case ReduceSum:
		reduceBody = "out->val = sum(in->val);"
	case ReduceCount:
		reduceBody = "out->val = count(in->val);"
	default:
		reduceBody = "out->val = in->val;"
	}
	var b strings.Builder
	b.WriteString("#include <math.h>\n#include <string.h>\n#include \"kvp.h\"\n\n")
	b.WriteString(`float avg(float *a, size_t count) {
    if (count == 1)
        return *a;
    return (*a + ((count-1)*avg(a+1,count-1))/count);
}

`)
	b.WriteString("int map (KVP *in, KVP *out) {\n")
	b.WriteString("    strncpy (out->key, in->key, MAXKEY);\n")
	b.WriteString("    out->val = " + mapExpr + ";\n")
	b.WriteString("    return 0;\n}\n\n")
	b.WriteString("int reduce (KVP *in, KVP *out) {\n")
	b.WriteString("    strncpy (out->key, in->key, MAXKEY);\n")
	b.WriteString("    " + reduceBody + "\n")
	b.WriteString("    return 0;\n}\n")
	return b.String()
}

// Listing7 is the OpenMP driver containing main — the paper's Listing 7,
// shape-for-shape: parallel-for map phase, qsort on keys, parallel-for
// reduce phase.
const Listing7 = `/* OpenMP driver for Parallel Snap! MapReduce code output. */
#include <omp.h>
#include <stdlib.h>
#include <string.h>
#include <stdio.h>
#include "kvp.h"

int main(int argc, char *argv[]) {
    int nkvp;
    KVP *inputlist, *midlist, *outputlist;

    if (input(&nkvp, &inputlist) != 0) {
        return 1;
    }
    midlist = malloc(nkvp * sizeof(struct KVP));

    /* Run mapper */
    #pragma omp parallel for shared(nkvp, inputlist, midlist)
    for (int i = 0; i < nkvp; i++) {
        map(&inputlist[i], &midlist[i]);
    }

    /* Sort on keys */
    qsort(midlist, nkvp, sizeof(KVP), compare);
    outputlist = malloc(nkvp * sizeof(struct KVP));

    /* Run reducer */
    #pragma omp parallel for shared(nkvp, midlist, outputlist)
    for (int i = 0; i < nkvp; i++) {
        reduce(&midlist[i], &outputlist[i]);
    }

    if (output(nkvp, outputlist) != 0) {
        exit(1);
    }

    free(inputlist);
    free(outputlist);

    return 0;
}
`

// RunnableProgram generates a single-file, genuinely compilable and
// runnable OpenMP MapReduce program for the given mapper expression,
// reducer kind, and embedded dataset. It keeps Listing 7's structure —
// parallel map, qsort, reduce — but performs the reduce per key group so
// the output is the actual MapReduce result (the paper's elementwise
// driver is schematic). This is what the gcc-gated integration test
// compiles with -fopenmp and runs.
func RunnableProgram(mapExpr string, kind ReduceKind, data []float64) string {
	var reduceExpr string
	switch kind {
	case ReduceSum:
		reduceExpr = "s"
	case ReduceCount:
		reduceExpr = "(float)n"
	default: // avg
		reduceExpr = "s / n"
	}
	return fmt.Sprintf(`/* OpenMP driver for Parallel Snap! MapReduce code output. */
#include <omp.h>
#include <stdlib.h>
#include <string.h>
#include <stdio.h>

#define MAXKEY 64
typedef struct KVP {
    char  key[MAXKEY];
    float val;
} KVP;

static float dataset[] = { %s };

int input(int *nkvp, KVP **list) {
    *nkvp = (int)(sizeof(dataset)/sizeof(dataset[0]));
    *list = malloc(*nkvp * sizeof(KVP));
    for (int i = 0; i < *nkvp; i++) {
        (*list)[i].key[0] = '\0';
        (*list)[i].val = dataset[i];
    }
    return 0;
}

int map(KVP *in, KVP *out) {
    strncpy(out->key, in->key, MAXKEY);
    out->val = %s;
    return 0;
}

int compare(const void *a, const void *b) {
    return strncmp(((const KVP *)a)->key, ((const KVP *)b)->key, MAXKEY);
}

void group_reduce(KVP *in, int n, KVP *out) {
    float s = 0;
    strncpy(out->key, in->key, MAXKEY);
    for (int i = 0; i < n; i++)
        s += in[i].val;
    out->val = %s;
}

int output(int nkvp, KVP *list) {
    for (int i = 0; i < nkvp; i++)
        printf("%%s %%g\n", list[i].key, list[i].val);
    return 0;
}

int main(int argc, char *argv[]) {
    int nkvp;
    KVP *inputlist, *midlist, *outputlist;

    if (input(&nkvp, &inputlist) != 0) {
        return 1;
    }
    midlist = malloc(nkvp * sizeof(KVP));

    /* Run mapper */
    #pragma omp parallel for shared(nkvp, inputlist, midlist)
    for (int i = 0; i < nkvp; i++) {
        map(&inputlist[i], &midlist[i]);
    }

    /* Sort on keys */
    qsort(midlist, nkvp, sizeof(KVP), compare);
    outputlist = malloc(nkvp * sizeof(KVP));

    /* Run reducer per key group */
    int groups = 0;
    for (int i = 0; i < nkvp; ) {
        int j = i;
        while (j < nkvp && strncmp(midlist[j].key, midlist[i].key, MAXKEY) == 0)
            j++;
        group_reduce(&midlist[i], j - i, &outputlist[groups++]);
        i = j;
    }

    if (output(groups, outputlist) != 0) {
        exit(1);
    }

    free(inputlist);
    free(midlist);
    free(outputlist);

    return 0;
}
`, cDataArray(data), mapExpr, reduceExpr)
}

// Makefile automates "the compilation and linking of the textual output
// from the code mapping process in order to fulfill the same requirements
// as are currently filled by the Makefile in command-line programming
// environments" (§6.3).
const Makefile = `CC      = gcc
CFLAGS  = -O2 -std=c99 -fopenmp
LDLIBS  = -lm

all: mapreduce

mapreduce: main.o mapreduce.o
	$(CC) $(CFLAGS) -o $@ $^ $(LDLIBS)

main.o: main.c kvp.h
	$(CC) $(CFLAGS) -c main.c

mapreduce.o: mapreduce.c kvp.h
	$(CC) $(CFLAGS) -c mapreduce.c

clean:
	rm -f *.o mapreduce
`

// BatchScript generates the outline batch submission script of §6.3:
// "The Snap! environment can be extended to generate an outline of the
// batch submission script, if not its entirety."
func BatchScript(jobName string, nodes, threads, walltimeMinutes int) string {
	return fmt.Sprintf(`#!/bin/bash
#SBATCH --job-name=%s
#SBATCH --nodes=%d
#SBATCH --ntasks=1
#SBATCH --cpus-per-task=%d
#SBATCH --time=00:%02d:00
#SBATCH --output=%s.%%j.out

export OMP_NUM_THREADS=%d

make
./mapreduce < input.dat > output.dat
`, jobName, nodes, threads, walltimeMinutes, jobName, threads)
}

// MapReduceFiles translates a mapReduce block into the full §6 artifact
// set: kvp.h, mapreduce.c (Listing 6), main.c (Listing 7), a runnable
// single-file program, the Makefile, and the batch script.
func MapReduceFiles(b *blocks.Block, data []float64, threads int) (map[string]string, error) {
	if b.Op != "reportMapReduce" {
		return nil, fmt.Errorf("expected a mapReduce block, got %q", b.Op)
	}
	mapRing, ok := b.Input(0).(blocks.RingNode)
	if !ok {
		return nil, fmt.Errorf("mapReduce's first input must be a ring")
	}
	reduceRing, ok := b.Input(1).(blocks.RingNode)
	if !ok {
		return nil, fmt.Errorf("mapReduce's second input must be a ring")
	}
	mapExpr, err := MapperCode(mapRing)
	if err != nil {
		return nil, err
	}
	kind := ClassifyReducer(reduceRing)
	if kind == ReduceUnknown {
		return nil, fmt.Errorf("unrecognized reduce ring shape: supported are average, sum, and count")
	}
	return map[string]string{
		"kvp.h":       KVPHeader,
		"mapreduce.c": Listing6(mapExpr, kind),
		"main.c":      Listing7,
		"runnable.c":  RunnableProgram(mapExpr, kind, data),
		"Makefile":    Makefile,
		"job.sbatch":  BatchScript("snap-mapreduce", 1, threads, 10),
	}, nil
}

// ParallelMapProgram translates a parallelMap block into a standalone
// OpenMP program: the worker function generated from the ring (Listing 2's
// mappedCode), applied across the data by a parallel-for.
func ParallelMapProgram(b *blocks.Block, data []float64, threads int) (string, error) {
	return cMapProgram(b, data, true, threads)
}

// SequentialMapProgram generates the plain sequential C loop for the same
// map — the baseline both parallel dialects are diffed against.
func SequentialMapProgram(b *blocks.Block, data []float64) (string, error) {
	return cMapProgram(b, data, false, 0)
}

// cMapProgram is the one C map-program template. Its OpenMP form differs
// from the sequential one only by the omp.h include, the thread-count call
// and the pragma (and the title comment): §6.1's "very small" difference
// holds by construction.
func cMapProgram(b *blocks.Block, data []float64, parallel bool, threads int) (string, error) {
	expr, err := parallelMapExpr(CLang(), b)
	if err != nil {
		return "", err
	}
	title, include, loop := "Sequential C translation of the Snap! map", "", ""
	if parallel {
		title = "OpenMP translation of the Snap! parallelMap block"
		include = "#include <omp.h>\n"
		loop = fmt.Sprintf("    omp_set_num_threads(%d);\n    #pragma omp parallel for shared(in, out)\n", threads)
	}
	return fmt.Sprintf(`/* %s. */
%s#include <stdio.h>

static double in[] = { %s };
#define N ((int)(sizeof(in)/sizeof(in[0])))
static double out[N];

double f(double x) {
    return %s;
}

int main(void) {
%s    for (int i = 0; i < N; i++) {
        out[i] = f(in[i]);
    }
    for (int i = 0; i < N; i++) {
        printf("%%g\n", out[i]);
    }
    return 0;
}
`, title, include, cDataArray(data), expr, loop), nil
}

// cDataArray formats a dataset as the items of a C (or Go) array literal.
func cDataArray(data []float64) string {
	var vals strings.Builder
	for i, d := range data {
		if i > 0 {
			vals.WriteString(", ")
		}
		fmt.Fprintf(&vals, "%g", d)
	}
	return vals.String()
}

// OpenMPEmitter extends the C emitter so whole scripts containing the
// parallelForEach block translate to OpenMP C: the block's nested script
// becomes the body of a `#pragma omp parallel for` loop over the list,
// with the item variable bound per iteration — the §6 promise applied to
// the §3.3 block.
type OpenMPEmitter struct {
	*CEmitter
}

// NewOpenMPEmitter builds an emitter whose language table adds the
// parallel blocks to the C mapping.
func NewOpenMPEmitter() *OpenMPEmitter {
	e := &OpenMPEmitter{CEmitter: NewCEmitter()}
	lang := e.t.Lang
	lang.Name = "openmp"
	lang.Custom["doParallelForEach"] = e.parallelForEach
	return e
}

// parallelForEach generates the pragma loop. Sequential mode (flag false)
// generates the same loop without the pragma — the one-toggle contrast the
// block teaches.
func (e *OpenMPEmitter) parallelForEach(t *Translator, b *blocks.Block, indent int) (string, error) {
	itemVar, err := rawIdent(b.Input(0))
	if err != nil {
		return "", err
	}
	listExpr, err := t.Expr(b.Input(1))
	if err != nil {
		return "", err
	}
	parallel := true
	if lit, ok := b.Input(4).(blocks.Literal); ok {
		if bv, ok2 := lit.Val.(value.Bool); ok2 {
			parallel = bool(bv)
		}
	}
	e.declared[itemVar] = CDouble
	body, err := t.BodyOf(b.Input(3), indent+1)
	if err != nil {
		return "", err
	}
	ind := strings.Repeat(t.Lang.IndentUnit, indent)
	var out strings.Builder
	if parallel {
		e.needsOMP = true
		out.WriteString(ind + "#pragma omp parallel for\n")
	}
	fmt.Fprintf(&out, "%sfor (int _i = 0; _i < (int)(sizeof(%s)/sizeof(%s[0])); _i++) {\n",
		ind, listExpr, listExpr)
	fmt.Fprintf(&out, "%s%sdouble %s = %s[_i];\n", ind, t.Lang.IndentUnit, itemVar, listExpr)
	if body != "" {
		out.WriteString(body + "\n")
	}
	out.WriteString(ind + "}")
	return out.String(), nil
}
