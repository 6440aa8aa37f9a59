// Governance under the bytecode machine: the cooperative contract —
// wall-clock deadlines, step budgets, and Kill — must hold exactly as it
// does for the tree-walker, including while a lowered loop is spinning and
// while an asynchronous mapReduce job is being polled from bytecode.
package vm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/blocks"
	"repro/internal/interp"
	"repro/internal/value"
	"repro/internal/vm"
)

// foreverProject is a green-flag script that counts forever — entirely
// lowerable, so under vm.Enabled() the process runs on the bytecode
// machine with no tree splices.
func foreverProject() *blocks.Project {
	pr := blocks.NewProject("vm-governance")
	sp := blocks.NewSprite("S")
	sp.Variables["x"] = value.Number(0)
	sp.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
		blocks.Forever(blocks.Body(
			blocks.ChangeVar("x", blocks.Num(1))))))
	pr.AddSprite(sp)
	return pr
}

func startForever(t *testing.T) *interp.Machine {
	t.Helper()
	vm.SetEnabled(true)
	m := interp.NewMachine(foreverProject(), nil)
	if procs := m.GreenFlag(); len(procs) != 1 {
		t.Fatalf("GreenFlag started %d processes, want 1", len(procs))
	}
	return m
}

func TestVMDeadlineKillsForever(t *testing.T) {
	m := startForever(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := m.RunContext(ctx, interp.RunLimits{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if n := len(m.Processes()); n != 0 {
		t.Fatalf("%d processes alive after deadline kill", n)
	}
}

func TestVMStepBudget(t *testing.T) {
	m := startForever(t)
	err := m.RunContext(context.Background(), interp.RunLimits{MaxSteps: 5000})
	if !errors.Is(err, interp.ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	if m.Steps() > 5000+int64(m.SliceOps) {
		t.Fatalf("steps = %d, want <= budget + one slice", m.Steps())
	}
	if n := len(m.Processes()); n != 0 {
		t.Fatalf("%d processes alive after budget kill", n)
	}
}

func TestVMKillMidLoop(t *testing.T) {
	m := startForever(t)
	procs := m.Processes()
	fired := false
	procs[0].OnDone = func(*interp.Process) { fired = true }
	if err := m.Run(5); !errors.Is(err, interp.ErrRoundLimit) {
		t.Fatalf("warm-up err = %v, want round limit", err)
	}
	m.Kill()
	if !fired {
		t.Fatal("OnDone hook did not fire on Kill")
	}
	if m.Step() {
		t.Fatal("machine still stepping after Kill")
	}
	if n := len(m.Processes()); n != 0 {
		t.Fatalf("%d processes alive after Kill", n)
	}
}

// TestVMKillDuringAsyncMapReduce spawns a mapReduce big enough for the
// polled engine path, steps once so the bytecode loop's tree splice is
// parked on the block's worker job, then kills the machine. The job must
// be canceled cleanly: no hang, no touch of the dead process.
func TestVMKillDuringAsyncMapReduce(t *testing.T) {
	vm.SetEnabled(true)
	pr := blocks.NewProject("vm-governance")
	sp := blocks.NewSprite("S")
	sp.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
		blocks.Report(blocks.MapReduce(
			blocks.RingOf(blocks.ListOf(
				blocks.Modulus(blocks.Empty(), blocks.Num(5)), blocks.Num(1))),
			blocks.RingOf(blocks.LengthOf(blocks.Empty())),
			blocks.Numbers(blocks.Num(1), blocks.Num(500))))))
	pr.AddSprite(sp)
	m := interp.NewMachine(pr, nil)
	if procs := m.GreenFlag(); len(procs) != 1 {
		t.Fatalf("GreenFlag started %d processes, want 1", len(procs))
	}
	m.Step() // job started; the process parked on it (or finished)
	m.Kill()
	if m.Step() {
		t.Fatal("machine still stepping after Kill")
	}
	if n := len(m.Processes()); n != 0 {
		t.Fatalf("%d processes alive after Kill", n)
	}
}
