package codegen

import (
	"fmt"
	"strings"

	"repro/internal/blocks"
)

// This file generates the pthreads translation of parallelMap — the foil
// §6.1 holds OpenMP against: "OpenMP is attractive because the difference
// between the sequential C version and the parallel OpenMP C version is
// very small and easily understood. This is in stark contrast to the
// complexity of other text-based approaches, such as pthreads." Experiment
// E15 makes that contrast quantitative by generating all three programs
// from the same block and counting what the parallelism costs in each
// dialect.

// PthreadsParallelMapProgram generates the pthreads translation of a
// parallelMap block: explicit thread handles, per-thread range structs,
// create/join error handling — everything the OpenMP pragma hides.
func PthreadsParallelMapProgram(b *blocks.Block, data []float64, threads int) (string, error) {
	expr, err := parallelMapExpr(CLang(), b)
	if err != nil {
		return "", err
	}
	if threads < 1 {
		threads = 4
	}
	return fmt.Sprintf(`/* pthreads translation of the Snap! parallelMap block. */
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>

static double in[] = { %s };
#define N ((int)(sizeof(in)/sizeof(in[0])))
#define NTHREADS %d
static double out[N];

typedef struct {
    int lo;
    int hi;
} range_t;

double f(double x) {
    return %s;
}

static void *worker(void *arg) {
    range_t *r = (range_t *)arg;
    for (int i = r->lo; i < r->hi; i++) {
        out[i] = f(in[i]);
    }
    return NULL;
}

int main(void) {
    pthread_t threads[NTHREADS];
    range_t ranges[NTHREADS];
    int chunk = (N + NTHREADS - 1) / NTHREADS;

    for (int t = 0; t < NTHREADS; t++) {
        ranges[t].lo = t * chunk;
        ranges[t].hi = (t + 1) * chunk;
        if (ranges[t].lo > N) {
            ranges[t].lo = N;
        }
        if (ranges[t].hi > N) {
            ranges[t].hi = N;
        }
        if (pthread_create(&threads[t], NULL, worker, &ranges[t]) != 0) {
            fprintf(stderr, "pthread_create failed for thread %%d\n", t);
            exit(1);
        }
    }
    for (int t = 0; t < NTHREADS; t++) {
        if (pthread_join(threads[t], NULL) != 0) {
            fprintf(stderr, "pthread_join failed for thread %%d\n", t);
            exit(1);
        }
    }

    for (int i = 0; i < N; i++) {
        printf("%%g\n", out[i]);
    }
    return 0;
}
`, cDataArray(data), threads, expr), nil
}

// CountLines reports the non-blank, non-comment-only line count of a C
// source — the programmability metric of E15.
func CountLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "/*") || strings.HasPrefix(s, "*") || strings.HasPrefix(s, "//") {
			continue
		}
		n++
	}
	return n
}
