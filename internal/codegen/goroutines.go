package codegen

import (
	"fmt"

	"repro/internal/blocks"
)

// GoParallelMapProgram translates a parallelMap block into a standalone Go
// program: the ring becomes a function, the worker pool becomes goroutines
// draining a shared channel — the §6 code-mapping pipeline pointed at the
// language this reproduction is written in, demonstrating the paper's
// closing claim that "this same approach can be used to generate the
// back-end code for any target system."
func GoParallelMapProgram(b *blocks.Block, data []float64, workers int) (string, error) {
	expr, err := parallelMapExpr(GoLang(), b)
	if err != nil {
		return "", err
	}
	if workers < 1 {
		workers = 4
	}
	return fmt.Sprintf(`// Go translation of the Snap! parallelMap block.
package main

import (
	"fmt"
	"sync"
)

var in = []float64{%s}

const workers = %d

func f(x float64) float64 {
	return %s
}

func main() {
	out := make([]float64, len(in))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = f(in[i])
			}
		}()
	}
	for i := range in {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, v := range out {
		fmt.Println(v)
	}
}
`, cDataArray(data), workers, expr), nil
}
