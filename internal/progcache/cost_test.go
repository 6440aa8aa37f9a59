package progcache_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/lint"
	"repro/internal/parse"
	"repro/internal/progcache"
	"repro/internal/xmlio"
)

// e17Source is E17's 41-sprite project (bench_test.go's body).
func e17Source() string {
	var src strings.Builder
	src.WriteString("(project \"repeat\"\n")
	src.WriteString("  (sprite \"Main\" (when green-flag (do (say \"hi\"))))\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, "  (sprite \"S%d\" (when (receive \"m%d\") (do", i, i)
		for j := 0; j < 12; j++ {
			fmt.Fprintf(&src, " (say (join \"v%d-\" (+ %d %d)))", j, i, j)
		}
		src.WriteString(")))\n")
	}
	src.WriteString(")")
	return src.String()
}

// TestProjectCostTracksRetainedHeap holds Tier A's charge for an entry
// within ±50% of the heap the entry keeps: the parsed project, its run
// plan and its lint findings, or the parse error of a rejected body. The heap is measured as
// the growth over n entries kept alive (several megabytes, so stray
// allocations elsewhere stay small against it), each elaborated from its
// own copy of the source, as the server elaborates each request's decoded
// body. The rows with a 256 KiB atom hold a body whose size is all in one
// string: a literal the AST keeps, or the atom a rejection quotes.
func TestProjectCostTracksRetainedHeap(t *testing.T) {
	sblk, err := os.ReadFile("../../projects/concession.sblk")
	if err != nil {
		t.Fatal(err)
	}
	xml, err := os.ReadFile("../../projects/concession-parallel.xml")
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 256<<10)
	for _, c := range []struct {
		name, src string
		xml       bool
		n         int
	}{
		{"e17-41-sprites", e17Source(), false, 200},
		{"concession-sblk", string(sblk), false, 2000},
		{"concession-parallel-xml", string(xml), true, 2000},
		{"sblk-large-literal", strings.Replace(string(sblk), `"full!"`, `"`+big+`"`, 1), false, 20},
		{"xml-large-literal", strings.Replace(string(xml), ">full!<", ">"+big+"<", 1), true, 20},
		{"rejected-large-operator", `(project "x" (sprite "S" (when green-flag (do (` + big + `)))))`, false, 20},
		{"rejected-large-head", "(" + big + " 1)", false, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := c.n
			elaborate := func(src string) *progcache.ProjectEntry {
				var p *blocks.Project
				var err error
				if c.xml {
					p, err = xmlio.DecodeProject(strings.NewReader(src))
				} else {
					p, err = parse.Project(src)
				}
				if err != nil {
					return &progcache.ProjectEntry{ParseErr: err.Error()}
				}
				ent := &progcache.ProjectEntry{Project: p, Plan: interp.NewPlan(p)}
				for _, f := range lint.Project(p) {
					ent.Warnings = append(ent.Warnings, f.String())
				}
				return ent
			}
			kept := make([]*progcache.ProjectEntry, n)
			before := heapAlloc()
			for i := range kept {
				kept[i] = elaborate(strings.Clone(c.src))
			}
			retained := float64(heapAlloc()-before) / float64(n)
			if strings.HasPrefix(c.name, "rejected") != (kept[0].ParseErr != "") {
				t.Fatalf("parse error %q", kept[0].ParseErr)
			}
			runtime.KeepAlive(kept)

			cache := progcache.NewProjects(1 << 40)
			for i := 0; i < n; i++ {
				cache.Lookup(fmt.Sprint(i), func() *progcache.ProjectEntry { return elaborate(strings.Clone(c.src)) })
			}
			charge := float64(cache.Stats().Bytes) / float64(n)
			t.Logf("%d source bytes: retained %.0f B, charged %.0f B (%.2f×)", len(c.src), retained, charge, charge/retained)
			if charge < retained/2 || charge > retained*3/2 {
				t.Errorf("charge %.0f B is not within ±50%% of the retained %.0f B", charge, retained)
			}
		})
	}
}

func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
