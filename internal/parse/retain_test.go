package parse

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/blocks"
	"repro/internal/vm"
)

// e17Variant is E17's 41-sprite project (15 KB of source) with a
// green-flag script that differs from variant to variant.
func e17Variant(v int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(project \"repeat\"\n  (sprite \"Main\" (when green-flag (do (say \"hi %d\"))))\n", v)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "  (sprite \"S%d\" (when (receive \"m%d\") (do", i, i)
		for j := 0; j < 12; j++ {
			fmt.Fprintf(&b, " (say (join \"v%d-\" (+ %d %d)))", j, i, j)
		}
		b.WriteString(")))\n")
	}
	b.WriteString(")")
	return b.String()
}

// oneSpriteVariant is one sprite holding a 2,000-item local list and 40
// message scripts of twelve blocks beside a green-flag script that
// differs from variant to variant.
func oneSpriteVariant(v int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(project \"big\"\n  (sprite \"Main\"\n    (local data (list")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, " %d", i)
	}
	fmt.Fprintf(&b, "))\n    (when green-flag (do (say \"hi %d\")))\n", v)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "    (when (receive \"m%d\") (do", i)
		for j := 0; j < 12; j++ {
			fmt.Fprintf(&b, " (say (join \"v%d-\" (+ %d %d)))", j, i, j)
		}
		b.WriteString("))\n")
	}
	b.WriteString("))")
	return b.String()
}

// TestLoweredScriptKeepsOnlyItsOwn pins what of a parsed project the VM
// memo keeps alive once the project is dropped: a lowered green-flag
// script must keep no more than the reference lowering's did, its own
// blocks and strings, whether its sprite is small or holds a large list
// and many other scripts. An atom sliced out of the source, or blocks
// allocated together across scripts, would keep the whole source or
// sprite alive instead.
func TestLoweredScriptKeepsOnlyItsOwn(t *testing.T) {
	for _, c := range []struct {
		name    string
		variant func(int) string
	}{
		{"e17-41-sprites", e17Variant},
		{"one-sprite-40-scripts-local-list", oneSpriteVariant},
	} {
		t.Run(c.name, func(t *testing.T) {
			keep := func(project func(string) (*blocks.Project, error)) float64 {
				const n = 100
				progs := make([]*vm.Program, 0, n)
				before := heapAlloc()
				for v := 0; v < n; v++ {
					p, err := project(c.variant(v))
					if err != nil {
						t.Fatal(err)
					}
					for _, hs := range p.Sprites[0].Scripts {
						if hs.Hat == blocks.HatGreenFlag {
							progs = append(progs, vm.LowerScript(hs.Script)) // what a memo entry holds
						}
					}
				}
				perEntry := float64(heapAlloc()-before) / n
				runtime.KeepAlive(progs)
				return perEntry
			}
			ref := keep(refProject)
			got := keep(Project)
			t.Logf("a memo entry keeps %.0f B (reference lowering: %.0f B)", got, ref)
			if got > ref+64 {
				t.Errorf("a memo entry keeps %.0f B of its dropped project, the reference lowering's %.0f B", got, ref)
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
