// Command snapgen is the §6 code-mapping pipeline as a tool: it translates
// block programs to text-based source code — C (Listing 5 style), OpenMP C,
// JavaScript, Python, or Go — and emits the full OpenMP MapReduce bundle
// (kvp.h, mapreduce.c, main.c, a runnable single file, Makefile, and batch
// script).
//
//	snapgen -lang c -demo fig16           # Listing 5
//	snapgen -lang python project.xml      # first green-flag script
//	snapgen -openmp -out ./generated      # Figures 18-20 / Listings 6-7
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/blocks"
	"repro/internal/codegen"
	"repro/internal/parse"
	"repro/internal/xmlio"
)

func main() {
	lang := flag.String("lang", "c", "target language: c, openmp, js, python, go")
	demo := flag.String("demo", "", "translate a built-in script: fig16")
	openmp := flag.Bool("openmp", false, "emit the OpenMP MapReduce bundle for the climate example")
	out := flag.String("out", "", "directory for -openmp output (default: stdout)")
	threads := flag.Int("threads", 4, "OpenMP thread count for generated code")
	flag.Parse()

	if *openmp {
		if err := emitOpenMP(*out, *threads); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	script, err := loadScript(*demo, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	switch err := translate(os.Stdout, *lang, script); {
	case errors.Is(err, codegen.ErrUnknownLang):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "translate:", err)
		os.Exit(1)
	}
}

// translate writes the script's translation into lang to w, ending in one
// newline whether or not the emitter's output has one.
func translate(w io.Writer, lang string, script *blocks.Script) error {
	src, err := codegen.Emit(lang, script)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, strings.TrimSuffix(src, "\n"))
	return err
}

func loadScript(demo, path string) (*blocks.Script, error) {
	if demo == "fig16" {
		return codegen.Figure16Script(), nil
	}
	if demo != "" {
		return nil, fmt.Errorf("unknown demo %q", demo)
	}
	if path == "" {
		return nil, fmt.Errorf("usage: snapgen [-lang L] (-demo fig16 | project.xml | script.sblk)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "(") || strings.HasPrefix(trimmed, ";") {
		// Textual input: either a whole (project ...) or a bare script.
		if strings.HasPrefix(trimmed, "(project") {
			p, err := parse.Project(string(data))
			if err != nil {
				return nil, err
			}
			return greenFlagScript(p)
		}
		return parse.Script(string(data))
	}
	p, err := xmlio.DecodeProject(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return greenFlagScript(p)
}

func greenFlagScript(p *blocks.Project) (*blocks.Script, error) {
	for _, sp := range p.Sprites {
		for _, hs := range sp.Scripts {
			if hs.Hat == blocks.HatGreenFlag {
				return hs.Script, nil
			}
		}
	}
	return nil, fmt.Errorf("project has no green-flag script to translate")
}

func emitOpenMP(dir string, threads int) error {
	block := blocks.MapReduce(
		blocks.RingOf(blocks.Quotient(
			blocks.Product(blocks.Num(5), blocks.Difference(blocks.Empty(), blocks.Num(32))),
			blocks.Num(9))),
		blocks.RingOf(blocks.Quotient(
			blocks.Combine(blocks.Empty(), blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))),
			blocks.LengthOf(blocks.Empty()))),
		blocks.ListOf(blocks.Num(32), blocks.Num(212), blocks.Num(122)))
	files, err := codegen.MapReduceFiles(block, []float64{32, 212, 122}, threads)
	if err != nil {
		return err
	}
	if dir == "" {
		for _, name := range []string{"kvp.h", "mapreduce.c", "main.c", "runnable.c", "Makefile", "job.sbatch"} {
			fmt.Printf("--- %s ---\n%s\n", name, files[name])
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d files to %s (make && ./mapreduce, or sbatch job.sbatch)\n",
		len(files), dir)
	return nil
}
