package vm

import (
	"fmt"
	"sync"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
)

// ctrlEntry is one slot of the control stack: a loop counter, a wait
// countdown, or an inlined higher-order call in flight.
type ctrlEntry struct {
	list    *value.List
	out     *value.List
	args    [2]value.Value // hof call arguments; args[0] doubles as combine's accumulator
	name    string
	idx     int
	rem     int     // doWait timesteps left
	n       float64 // doRepeat remaining count
	i, to   float64 // doFor bounds
	step    float64
	nargs   int
	started bool
}

// run executes one Program on behalf of one Process. It implements
// interp.Exec: the machine's scheduler calls Step exactly as it would run
// a tree-walking slice, and governance (budgets, deadlines, Kill) flows
// through the same Process state.
type run struct {
	prog  *Program
	frame *interp.Frame
	pc    int

	stack []value.Value
	ctrl  []ctrlEntry
	fsave []*interp.Frame

	halted        bool
	splicing      bool
	spliceDiscard bool

	// Metric deltas batched per slice and flushed on Step return.
	mOps, mYields, mTree int64

	// Inline storage sized for the common shallow script: deeper programs
	// spill to the heap via append. Kept small on purpose — the whole run
	// struct is one allocation per process and zeroing it is on the
	// spawn path.
	stack0 [8]value.Value
	ctrl0  [2]ctrlEntry
	fsave0 [2]*interp.Frame
}

// runPool recycles run structs: the struct is one ~0.5KiB pointer-dense
// allocation per spawned process, and eval-style servers spawn one
// process per request. A run returns to the pool the moment it halts
// (release detaches it from its process first, so no live reference
// remains).
var runPool = sync.Pool{New: func() any { return new(run) }}

func newRun(prog *Program, p *interp.Process) *run {
	r := runPool.Get().(*run)
	r.prog = prog
	r.frame = p.RootFrame()
	r.stack = r.stack0[:0]
	r.ctrl = r.ctrl0[:0]
	r.fsave = r.fsave0[:0]
	return r
}

// release detaches the halted run from its finished process and recycles
// it. The process keeps reporting Done through its nil context, and the
// cleared struct drops every value reference the run pinned.
func (r *run) release(p *interp.Process) {
	p.DetachExec()
	*r = run{}
	runPool.Put(r)
}

func (r *run) Done() bool { return r.halted }

func (r *run) push(v value.Value) { r.stack = append(r.stack, v) }

func (r *run) pop() value.Value {
	v := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	return v
}

func (r *run) pushFrame() {
	r.fsave = append(r.fsave, r.frame)
	r.frame = interp.NewFrame(r.frame)
}

func (r *run) popFrame() {
	r.frame = r.fsave[len(r.fsave)-1]
	r.fsave = r.fsave[:len(r.fsave)-1]
}

func wrap(name string, err error) error { return fmt.Errorf("%s: %w", name, err) }

// Step runs at most maxOps bytecode operations (0 = unlimited), honoring
// the cooperative contract: a pending yield outside warp hands the thread
// back, exactly like the tree-walker's slice loop. The return value is
// the ops consumed — the unit machine step budgets count.
func (r *run) Step(p *interp.Process, maxOps int) int {
	ops := 0
	for {
		if r.halted || p.Stopped() || p.Err() != nil {
			r.halted = true
			break
		}
		if p.YieldPending() {
			if !p.Warped() {
				r.mYields++
				break
			}
			p.ClearYield()
		}
		if maxOps > 0 && ops >= maxOps {
			break
		}
		if r.splicing {
			budget := 0
			if maxOps > 0 {
				budget = maxOps - ops
			}
			v, n, done, escaped := p.StepSplice(budget)
			ops += n
			if !done {
				continue // loop top decides: yield out or budget out
			}
			r.splicing = false
			if escaped {
				r.halted = true
				break
			}
			if !r.spliceDiscard {
				r.push(v)
			}
			continue
		}
		op := r.prog.Ops[r.pc]
		r.pc++
		ops++
		if err := r.exec1(p, op); err != nil {
			p.Fail(err)
			r.halted = true
			break
		}
	}
	r.mOps += int64(ops)
	r.flush()
	if r.halted {
		r.release(p)
	}
	return ops
}

func (r *run) flush() {
	if enabledMetrics() && (r.mOps != 0 || r.mYields != 0 || r.mTree != 0) {
		mOps.Add(r.mOps)
		mYields.Add(r.mYields)
		mTreeCalls.Add(r.mTree)
	}
	r.mOps, r.mYields, r.mTree = 0, 0, 0
}

func (r *run) exec1(p *interp.Process, op Op) error {
	switch op.Code {
	case opConst:
		r.push(r.prog.Consts[op.A])

	case opConstList:
		r.push(r.prog.Consts[op.A].(*value.List).Clone())

	case opNothing:
		r.push(value.TheNothing)

	case opPop:
		r.stack = r.stack[:len(r.stack)-1]

	case opVarGet:
		v, err := r.frame.Get(r.prog.Names[op.A])
		if err != nil {
			return err // not wrapped: tree VarGet errors propagate raw
		}
		r.push(v)

	case opMakeRing:
		r.push(p.Reify(r.prog.RingTemplates[op.A], r.frame))

	case opMakeScrip:
		r.push(&blocks.Ring{Body: r.prog.Scripts[op.A], Env: r.frame})

	case opHofArg:
		c := &r.ctrl[op.A]
		switch {
		case c.nargs == 1:
			r.push(c.args[0])
		case int(op.B) < c.nargs:
			r.push(c.args[op.B])
		default:
			r.push(value.TheNothing)
		}

	case opPushFrame:
		r.pushFrame()

	case opPopFrame:
		r.popFrame()

	case opDeclare:
		n := int(op.B)
		base := len(r.stack) - n
		for _, v := range r.stack[base:] {
			r.frame.Declare(v.String(), value.Nothing{})
		}
		r.stack = r.stack[:base]

	case opSetVar:
		v := r.pop()
		name := r.pop()
		if err := r.frame.Set(name.String(), v); err != nil {
			return wrap("doSetVar", err)
		}

	case opChangeVar:
		d := r.pop()
		name := r.pop()
		ns := name.String()
		cur, err := r.frame.Get(ns)
		if err != nil {
			return wrap("doChangeVar", err)
		}
		n, err := value.ToNumber(cur)
		if err != nil {
			return wrap("doChangeVar", err)
		}
		delta, err := value.ToNumber(d)
		if err != nil {
			return wrap("doChangeVar", err)
		}
		if err := r.frame.Set(ns, value.Num(float64(n+delta))); err != nil {
			return wrap("doChangeVar", err)
		}

	case opJump:
		r.pc = int(op.A)

	case opJumpFalse:
		cond, err := value.ToBool(r.pop())
		if err != nil {
			return wrap(r.prog.Names[op.B], err)
		}
		if !cond {
			r.pc = int(op.A)
		}

	case opJumpTrue:
		cond, err := value.ToBool(r.pop())
		if err != nil {
			return wrap(r.prog.Names[op.B], err)
		}
		if cond {
			r.pc = int(op.A)
		}

	case opYield:
		p.RequestYield()

	case opReport:
		p.ReportResult(r.pop())
		r.halted = true

	case opStop:
		p.Stop()
		r.halted = true

	case opHalt:
		r.halted = true

	case opEnterWarp:
		p.EnterWarp()

	case opExitWarp:
		p.ExitWarp()

	case opRepeatInit:
		n, err := value.ToNumber(r.pop())
		if err != nil {
			return wrap("doRepeat", err)
		}
		if float64(n) < 1 {
			r.pc = int(op.A)
		} else {
			r.ctrl = append(r.ctrl, ctrlEntry{n: float64(n)})
		}

	case opRepeatNext:
		c := &r.ctrl[len(r.ctrl)-1]
		c.n--
		if c.n >= 1 {
			r.pc = int(op.A)
		} else {
			r.ctrl = r.ctrl[:len(r.ctrl)-1]
		}

	case opWaitInit:
		n, err := value.ToNumber(r.pop())
		if err != nil {
			return wrap("doWait", err)
		}
		if n <= 0 {
			r.pc = int(op.A)
		} else {
			r.ctrl = append(r.ctrl, ctrlEntry{rem: int(n)})
		}

	case opWaitTick:
		c := &r.ctrl[len(r.ctrl)-1]
		if c.rem <= 0 {
			r.ctrl = r.ctrl[:len(r.ctrl)-1]
			r.pc = int(op.A)
		} else {
			c.rem--
			p.MarkWaitConsumed()
			p.RequestYield()
		}

	case opForInit:
		to := r.pop()
		from := r.pop()
		name := r.pop()
		fv, err := value.ToNumber(from)
		if err != nil {
			return wrap("doFor", err)
		}
		tv, err := value.ToNumber(to)
		if err != nil {
			return wrap("doFor", err)
		}
		step := 1.0
		if fv > tv {
			step = -1
		}
		r.pushFrame()
		ns := name.String()
		r.frame.Declare(ns, value.Num(float64(fv)))
		r.ctrl = append(r.ctrl, ctrlEntry{i: float64(fv), to: float64(tv), step: step, name: ns})

	case opForNext:
		c := &r.ctrl[len(r.ctrl)-1]
		if (c.step > 0 && c.i > c.to) || (c.step < 0 && c.i < c.to) {
			r.ctrl = r.ctrl[:len(r.ctrl)-1]
			r.popFrame()
			r.pc = int(op.A)
		} else {
			r.frame.Declare(c.name, value.Num(c.i))
			c.i += c.step
		}

	case opForEachInit:
		lv := r.pop()
		name := r.pop()
		l, err := interp.AsList(lv)
		if err != nil {
			return wrap("doForEach", err)
		}
		r.ctrl = append(r.ctrl, ctrlEntry{list: l, name: name.String()})

	case opForEachNext:
		c := &r.ctrl[len(r.ctrl)-1]
		if c.idx >= c.list.Len() {
			r.ctrl = r.ctrl[:len(r.ctrl)-1]
			r.pc = int(op.A)
		} else {
			item := c.list.MustItem(c.idx + 1)
			c.idx++
			r.pushFrame()
			r.frame.Declare(c.name, item)
		}

	case opMapInit:
		l, err := interp.AsList(r.pop())
		if err != nil {
			return wrap("reportMap", err)
		}
		r.ctrl = append(r.ctrl, ctrlEntry{list: l, out: value.NewListCap(l.Len()), nargs: 1})

	case opMapNext:
		c := &r.ctrl[len(r.ctrl)-1]
		if c.started {
			c.out.Add(r.pop())
		}
		if c.idx >= c.list.Len() {
			out := c.out
			r.ctrl = r.ctrl[:len(r.ctrl)-1]
			r.push(out)
			r.pc = int(op.A)
		} else {
			c.args[0] = c.list.MustItem(c.idx + 1)
			c.idx++
			c.started = true
		}

	case opKeepInit:
		l, err := interp.AsList(r.pop())
		if err != nil {
			return wrap("reportKeep", err)
		}
		r.ctrl = append(r.ctrl, ctrlEntry{list: l, out: value.NewList(), nargs: 1})

	case opKeepNext:
		c := &r.ctrl[len(r.ctrl)-1]
		if c.started {
			keep, err := value.ToBool(r.pop())
			if err != nil {
				return wrap("reportKeep", err)
			}
			if keep {
				c.out.Add(c.list.MustItem(c.idx))
			}
		}
		if c.idx >= c.list.Len() {
			out := c.out
			r.ctrl = r.ctrl[:len(r.ctrl)-1]
			r.push(out)
			r.pc = int(op.A)
		} else {
			c.args[0] = c.list.MustItem(c.idx + 1)
			c.idx++
			c.started = true
		}

	case opCombineInit:
		l, err := interp.AsList(r.pop())
		if err != nil {
			return wrap("reportCombine", err)
		}
		e := ctrlEntry{list: l, nargs: 2}
		if l.Len() > 0 {
			e.args[0] = l.MustItem(1)
			e.idx = 1
		}
		r.ctrl = append(r.ctrl, e)

	case opCombineNext:
		c := &r.ctrl[len(r.ctrl)-1]
		// The tree checks emptiness on every entry, before folding.
		if c.list.Len() == 0 {
			r.ctrl = r.ctrl[:len(r.ctrl)-1]
			r.push(value.Number(0))
			r.pc = int(op.A)
			break
		}
		if c.started {
			c.args[0] = r.pop()
		}
		if c.idx >= c.list.Len() {
			acc := c.args[0]
			r.ctrl = r.ctrl[:len(r.ctrl)-1]
			r.push(acc)
			r.pc = int(op.A)
		} else {
			c.args[1] = c.list.MustItem(c.idx + 1)
			c.idx++
			c.started = true
		}

	case opHofParams:
		c := &r.ctrl[op.A]
		meta := r.prog.Metas[op.B]
		r.pushFrame()
		for i, name := range meta.params {
			if i < c.nargs {
				r.frame.Declare(name, c.args[i])
			} else {
				r.frame.Declare(name, value.Nothing{})
			}
		}

	case opPrim:
		e := &interp.PureOps[op.A]
		base := len(r.stack) - int(op.B)
		v, err := e.Fn(r.stack[base:])
		r.stack = r.stack[:base]
		if err != nil {
			return wrap(e.Name, err)
		}
		if !e.Cmd {
			r.push(v)
		}

	case opCallTree:
		r.mTree++
		p.BeginSplice(r.prog.Nodes[op.A], r.frame)
		r.splicing = true
		r.spliceDiscard = op.B == 1

	default:
		return fmt.Errorf("vm: invalid opcode %d", op.Code)
	}
	return nil
}
