package interp

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/value"
)

// This file implements "pick random _ to _", the one operator that is not
// a pure function of its inputs (it draws from the machine's or the
// process's random stream); the pure operators live in PureOps.

func init() {
	RegisterPrimitive("reportRandom", primRandom)
}

// workerSeed derives a distinct seed for each detached (worker) process.
// Detached processes run concurrently on the worker pool and rand.Rand is
// not goroutine-safe, so they cannot share one stream the way they briefly
// did — that was a data race. Each process lazily builds its own stream
// from the next counter value instead.
var workerSeed atomic.Int64

func init() { workerSeed.Store(0x5eed) }

// detachedRand returns the process-local random stream, creating it on
// first use. Only detached processes (Machine == nil) call this.
func (p *Process) detachedRand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(mix64(workerSeed.Add(1))))
	}
	return p.rng
}

// mix64 is the splitmix64 finalizer. rand.NewSource does not scramble its
// seed, so feeding it raw counter values gives consecutive processes
// visibly correlated streams (their first draws coincide); the finalizer
// spreads neighboring counters across the whole seed space.
func mix64(z int64) int64 {
	x := uint64(z) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

func primRandom(p *Process, ctx *Context) (value.Value, Control, error) {
	a, err := value.ToNumber(ctx.Inputs[0])
	if err != nil {
		return nil, Done, err
	}
	b, err := value.ToNumber(ctx.Inputs[1])
	if err != nil {
		return nil, Done, err
	}
	lo, hi := float64(a), float64(b)
	if lo > hi {
		lo, hi = hi, lo
	}
	var rng *rand.Rand
	if p.Machine != nil {
		rng = p.Machine.Rand()
	} else {
		rng = p.detachedRand()
	}
	if a.IsInt() && b.IsInt() {
		return value.NumInt(int(lo) + rng.Intn(int(hi)-int(lo)+1)), Done, nil
	}
	return value.Num(lo + rng.Float64()*(hi-lo)), Done, nil
}
