package interp

import (
	"errors"
	"fmt"

	"repro/internal/blocks"
	"repro/internal/value"
)

// This file implements the stock sequential higher-order blocks — map,
// keep, combine, for-each — that §3.1 builds on before parallelizing
// them. The list (red) reporters and commands live in PureOps.

func init() {
	RegisterPrimitive("reportMap", primMap)
	RegisterPrimitive("reportKeep", primKeep)
	RegisterPrimitive("reportCombine", primCombine)
	RegisterPrimitive("doForEach", primForEach)
}

// hofState drives the re-entrant sequential higher-order blocks: index of
// the next item and the accumulating output. The last delivered call result
// shows up at Inputs[argc+1] and is consumed on re-entry.
type hofState struct {
	i    int
	list *value.List
	out  *value.List
	acc  value.Value
}

// takeCallResult pops a ring-call result delivered beyond the scratch slot.
func takeCallResult(ctx *Context, argc int) (value.Value, bool) {
	if len(ctx.Inputs) > argc+1 {
		v := ctx.Inputs[argc+1]
		ctx.Inputs = ctx.Inputs[:argc+1]
		return v, true
	}
	return nil, false
}

func hofRing(v value.Value) (*blocks.Ring, error) {
	ring, ok := v.(*blocks.Ring)
	if !ok {
		return nil, fmt.Errorf("expecting a ring but getting a %s", v.Kind())
	}
	return ring, nil
}

// primMap is the stock sequential map of Figure 4: "executes sequentially
// by looping over a list, applying the user-supplied function to each list
// element, and ultimately returning a new list containing the results."
func primMap(p *Process, ctx *Context) (value.Value, Control, error) {
	const argc = 2
	st, ok := scratchState(ctx, argc)
	if !ok {
		l, err := AsList(ctx.Inputs[1])
		if err != nil {
			return nil, Done, err
		}
		s := &hofState{list: l, out: value.NewListCap(l.Len())}
		putScratch(ctx, "mapState", s)
		st = s
	}
	s := st.(*hofState)
	if v, got := takeCallResult(ctx, argc); got {
		s.out.Add(v)
	}
	if s.i >= s.list.Len() {
		return s.out, Done, nil
	}
	ring, err := hofRing(ctx.Inputs[0])
	if err != nil {
		return nil, Done, err
	}
	item := s.list.MustItem(s.i + 1)
	s.i++
	if err := p.CallRing(ring, []value.Value{item}); err != nil {
		return nil, Done, err
	}
	return nil, Again, nil
}

// primKeep filters: keep items such that the predicate holds.
func primKeep(p *Process, ctx *Context) (value.Value, Control, error) {
	const argc = 2
	st, ok := scratchState(ctx, argc)
	if !ok {
		l, err := AsList(ctx.Inputs[1])
		if err != nil {
			return nil, Done, err
		}
		s := &hofState{list: l, out: value.NewList()}
		putScratch(ctx, "keepState", s)
		st = s
	}
	s := st.(*hofState)
	if v, got := takeCallResult(ctx, argc); got {
		keep, err := value.ToBool(v)
		if err != nil {
			return nil, Done, err
		}
		if keep {
			s.out.Add(s.list.MustItem(s.i)) // s.i already advanced past it
		}
	}
	if s.i >= s.list.Len() {
		return s.out, Done, nil
	}
	ring, err := hofRing(ctx.Inputs[0])
	if err != nil {
		return nil, Done, err
	}
	item := s.list.MustItem(s.i + 1)
	s.i++
	if err := p.CallRing(ring, []value.Value{item}); err != nil {
		return nil, Done, err
	}
	return nil, Again, nil
}

// primCombine folds the list pairwise with a binary ring ("combine _
// using _") — the sequential ancestor of the parallel reduction.
func primCombine(p *Process, ctx *Context) (value.Value, Control, error) {
	const argc = 2
	st, ok := scratchState(ctx, argc)
	if !ok {
		l, err := AsList(ctx.Inputs[0])
		if err != nil {
			return nil, Done, err
		}
		s := &hofState{list: l}
		if l.Len() > 0 {
			s.acc = l.MustItem(1)
			s.i = 1
		}
		putScratch(ctx, "combineState", s)
		st = s
	}
	s := st.(*hofState)
	if s.list.Len() == 0 {
		return value.Number(0), Done, nil
	}
	if v, got := takeCallResult(ctx, argc); got {
		s.acc = v
	}
	if s.i >= s.list.Len() {
		return s.acc, Done, nil
	}
	ring, err := hofRing(ctx.Inputs[1])
	if err != nil {
		return nil, Done, err
	}
	item := s.list.MustItem(s.i + 1)
	s.i++
	if err := p.CallRing(ring, []value.Value{s.acc, item}); err != nil {
		return nil, Done, err
	}
	return nil, Again, nil
}

// primForEach is the stock sequential "for each _ in _ { _ }": the loop
// parallelForEach falls back to in sequential mode.
func primForEach(p *Process, ctx *Context) (value.Value, Control, error) {
	const argc = 3
	st, ok := scratchState(ctx, argc)
	if !ok {
		l, err := AsList(ctx.Inputs[1])
		if err != nil {
			return nil, Done, err
		}
		s := &hofState{list: l}
		putScratch(ctx, "forEachState", s)
		st = s
	}
	s := st.(*hofState)
	if s.i >= s.list.Len() {
		return nil, Done, nil
	}
	body, ok := ctx.Inputs[2].(*blocks.Ring)
	if !ok {
		return nil, Done, errors.New("for each needs a script body")
	}
	item := s.list.MustItem(s.i + 1)
	s.i++
	iter := NewFrame(ringEnv(body, p))
	iter.Declare(ctx.Inputs[0].String(), item)
	p.PushYield() // unconditional: see primRepeat in prims_control.go
	if err := p.PushBodyInFrame(ctx.Inputs[2], iter); err != nil {
		return nil, Done, err
	}
	return nil, Again, nil
}
