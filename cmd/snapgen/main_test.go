package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blocks"
	"repro/internal/codegen"
	"repro/internal/demos"
	"repro/internal/xmlio"
)

func TestLoadScript(t *testing.T) {
	s, err := loadScript("fig16", "")
	if err != nil || s.Len() == 0 {
		t.Errorf("fig16: %v", err)
	}
	if _, err := loadScript("figNaN", ""); err == nil {
		t.Error("unknown demo should error")
	}
	if _, err := loadScript("", ""); err == nil {
		t.Error("no input should error")
	}
	if _, err := loadScript("", "/missing.xml"); err == nil {
		t.Error("missing file should error")
	}
}

func TestLoadScriptFromProjectXML(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.xml")
	f, _ := os.Create(path)
	if err := xmlio.EncodeProject(f, demos.Dragon(3)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err := loadScript("", path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 {
		t.Error("green-flag script should be non-empty")
	}
	// A project with no green-flag script errors.
	path2 := filepath.Join(dir, "empty.xml")
	f2, _ := os.Create(path2)
	if err := xmlio.EncodeProject(f2, blocks.NewProject("empty")); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	if _, err := loadScript("", path2); err == nil {
		t.Error("project without green-flag script should error")
	}
}

func TestEmitOpenMPToDir(t *testing.T) {
	dir := t.TempDir()
	if err := emitOpenMP(filepath.Join(dir, "gen"), 4); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"kvp.h", "mapreduce.c", "main.c", "runnable.c", "Makefile", "job.sbatch"} {
		data, err := os.ReadFile(filepath.Join(dir, "gen", name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	mk, _ := os.ReadFile(filepath.Join(dir, "gen", "Makefile"))
	if !strings.Contains(string(mk), "-fopenmp") {
		t.Error("Makefile must carry -fopenmp")
	}
}

func TestLoadScriptFromText(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.sblk")
	os.WriteFile(path, []byte(`(set a (list 3 7 8)) (set b (list))
(for i 1 (length $a) (do (add (* (item $i $a) 10) $b)))`), 0o644)
	s, err := loadScript("", path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Errorf("parsed %d blocks", s.Len())
	}
	// And a textual whole-project file.
	path2 := filepath.Join(dir, "p.sblk")
	os.WriteFile(path2, []byte(`(project "p" (sprite "S" (when green-flag (do (forward 1)))))`), 0o644)
	s2, err := loadScript("", path2)
	if err != nil || s2.Len() != 1 {
		t.Errorf("textual project script: %v, %v", s2, err)
	}
}

// TestTranslateEveryLang translates the Figure 16 demo under each language
// codegen.Emit accepts, openmp included, and refuses an unknown one.
func TestTranslateEveryLang(t *testing.T) {
	script, err := loadScript("fig16", "")
	if err != nil {
		t.Fatal(err)
	}
	for lang, want := range map[string]string{
		"c":      "int main()",
		"openmp": "int main()",
		"js":     "let a = [3, 7, 8];",
		"python": "a = [3, 7, 8]",
		"go":     "a := []float64{3, 7, 8}",
	} {
		var out bytes.Buffer
		if err := translate(&out, lang, script); err != nil {
			t.Errorf("%s: %v", lang, err)
			continue
		}
		src := out.String()
		if !strings.Contains(src, want) {
			t.Errorf("%s: output lacks %q:\n%s", lang, want, src)
		}
		if !strings.HasSuffix(src, "\n") || strings.HasSuffix(src, "\n\n") {
			t.Errorf("%s: output should end in exactly one newline: %q", lang, src)
		}
	}
	if err := translate(io.Discard, "cobol", script); !errors.Is(err, codegen.ErrUnknownLang) {
		t.Errorf("cobol: err = %v, want ErrUnknownLang", err)
	}
}
