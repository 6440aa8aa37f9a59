package vm

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/obs"
)

// Metric handles, aliased so the hot paths read short.
var (
	mOps       = obs.VMOps
	mYields    = obs.VMYields
	mTreeCalls = obs.VMTreeCalls
	mLowerings = obs.VMLowerings
)

func enabledMetrics() bool { return obs.Enabled() }

var enabled atomic.Bool

// SetEnabled turns the bytecode machine on or off process-wide; off means
// every new process tree-walks (running executors are unaffected). The
// differential harness flips this to compare the two engines.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether new processes execute on the bytecode machine.
func Enabled() bool { return enabled.Load() }

// programMutator, when installed, rewrites every freshly lowered program
// before it is returned — after constant folding, so the corruption
// cannot be folded away. It exists for the evolutionary stress engine's
// self-test: inject a deliberate op-level bug and prove the cross-tier
// oracle catches and shrinks it.
var programMutator func(*Program)

// SetProgramMutator installs (nil clears) the post-lowering program
// mutator and flushes the memo, whose programs were lowered under the
// previous one. Test/stress hook only — never set in production paths,
// and call it while no script is being lowered.
func SetProgramMutator(f func(*Program)) {
	memoMu.Lock()
	defer memoMu.Unlock()
	programMutator = f
	memo = make(map[memoKey]*Program)
}

func init() {
	enabled.Store(true)
	interp.SetSpawnHook(hookSpawn)
}

// hookSpawn is consulted by interp.Machine for every spawned script
// process: it installs a bytecode executor when the script lowers to
// something worth running. Tracing machines keep the tree-walker — the
// per-block trace hook has no bytecode equivalent.
func hookSpawn(m *interp.Machine, p *interp.Process, script *blocks.Script) {
	if !enabled.Load() || m == nil || m.TraceBlock != nil || script == nil {
		return
	}
	prog := Lookup(script)
	if prog == nil || prog.NativeStmts == 0 {
		return
	}
	p.InstallExec(newRun(prog, p))
}

// Lookup resolves script to its lowered program through the memo.
// Scripts whose literals defeat structural hashing (opaque payloads,
// ring values) skip it and lower in place.
func Lookup(s *blocks.Script) *Program {
	k, ok := memoHash(s)
	if !ok {
		return LowerScript(s)
	}
	if prog := memoGet(k); prog != nil {
		return prog
	}
	prog := LowerScript(s)
	if prog != nil {
		memoPut(k, prog)
	}
	return prog
}

// The memo, the one lowered-program cache: bounded, flushed whole when
// full (churn here means the workload is not the repeated-script pattern
// the memo serves). Entries are keyed by two independently seeded 64-bit
// hashes of the script's canonical encoding (blocks.AppendKey); with both
// seeds drawn at process start, a cross-script collision needs ~2^128
// luck against unknown seeds, so no exemplar comparison is kept. Mutating
// a script after it ran is still safe: the cached program was derived
// from the content the key encodes, so any later script matching the key
// has that same content and the program is correct for it.
const memoMax = 512

type memoKey struct{ h1, h2 uint64 }

var (
	memoMu    sync.RWMutex
	memoSeed1 = maphash.MakeSeed()
	memoSeed2 = maphash.MakeSeed()
	memo      = make(map[memoKey]*Program)
)

func memoGet(k memoKey) *Program {
	memoMu.RLock()
	defer memoMu.RUnlock()
	return memo[k]
}

func memoPut(k memoKey, prog *Program) {
	memoMu.Lock()
	defer memoMu.Unlock()
	if len(memo) >= memoMax {
		memo = make(map[memoKey]*Program)
	}
	memo[k] = prog
}

// memoHash keys s by its canonical encoding, built in a stack buffer
// that holds realistic scripts.
func memoHash(s *blocks.Script) (memoKey, bool) {
	var buf [1024]byte
	enc, ok := blocks.AppendKey(buf[:0], s)
	if !ok {
		return memoKey{}, false
	}
	return memoKey{h1: maphash.Bytes(memoSeed1, enc), h2: maphash.Bytes(memoSeed2, enc)}, true
}
