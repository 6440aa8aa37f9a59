package interp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
)

func init() {
	// testAwaitTimer is Listing 2's poll-and-yield over a stand-in job:
	// the first entry starts a timer that resolves the job after its
	// input's milliseconds (never, when negative), later entries report
	// "open" once it has resolved, and an unresolved job parks the
	// process before it yields.
	interp.RegisterPrimitive("testAwaitTimer", func(p *interp.Process, ctx *interp.Context) (value.Value, interp.Control, error) {
		var done chan struct{}
		if len(ctx.Inputs) < 2 {
			ms, err := value.ToNumber(ctx.Inputs[0])
			if err != nil {
				return nil, interp.Done, err
			}
			done = make(chan struct{})
			if ms >= 0 {
				time.AfterFunc(time.Duration(ms)*time.Millisecond, func() { close(done) })
			}
			ctx.Inputs = append(ctx.Inputs, &value.Opaque{Tag: "testJob", Payload: done})
		} else {
			done = ctx.Inputs[1].(*value.Opaque).Payload.(chan struct{})
			select {
			case <-done:
				return value.Text("open"), interp.Done, nil
			default:
			}
		}
		p.ParkOn(done)
		p.PushYield()
		return nil, interp.Again, nil
	})
}

// TestParkedMachineSleepsInsteadOfSpinning pins the park rule: while its
// only process waits on an unresolved job, the machine sleeps rather than
// running rounds, so the run costs the same two rounds however long the
// job takes.
func TestParkedMachineSleepsInsteadOfSpinning(t *testing.T) {
	for _, ms := range []float64{0, 30} {
		m := interp.NewMachine(blocks.NewProject("park"), nil)
		v, err := m.RunScript(blocks.NewScript(blocks.Report(awaitTimer(ms))))
		if err != nil || v.String() != "open" {
			t.Fatalf("%vms job: got %v, %v", ms, v, err)
		}
		if m.Round() != 2 {
			t.Fatalf("%vms job: %d rounds, want 2 (one that starts and parks, one that reports)", ms, m.Round())
		}
	}
}

// TestParkedMachineHonoursDeadline pins that a parked wait always returns
// on the context: a job that never resolves cannot outlive the deadline.
func TestParkedMachineHonoursDeadline(t *testing.T) {
	m := interp.NewMachine(blocks.NewProject("park"), nil)
	m.SpawnExpr(nil, nil, awaitTimer(-1), nil) // a job that never resolves
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := m.RunContext(ctx, interp.RunLimits{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("parked machine took %v to honour a 30ms deadline", d)
	}
	if m.Round() != 1 || len(m.Processes()) != 0 {
		t.Fatalf("%d rounds, %d live processes; want 1 round and none alive", m.Round(), len(m.Processes()))
	}
}

func awaitTimer(ms float64) *blocks.Block {
	return blocks.NewBlock("testAwaitTimer", blocks.Num(ms))
}
