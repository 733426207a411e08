package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"dagguise/internal/config"
	"dagguise/internal/fault"
)

func twoCore(t *testing.T, scheme config.Scheme) *System {
	t.Helper()
	cfg := config.Default(2, scheme)
	sys, err := New(cfg, []CoreSpec{docdistSpec(t, true), specFor(t, "lbm", 5, false)})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRunCheckedCtxHonoursCancel(t *testing.T) {
	sys := twoCore(t, config.DAGguise)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sys.RunCheckedCtx(ctx, 100_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if sys.now != 0 {
		t.Fatalf("pre-canceled context still advanced the machine to cycle %d", sys.now)
	}
}

func TestRunCheckedCtxDeadlineStopsMidRun(t *testing.T) {
	sys := twoCore(t, config.DAGguise)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := sys.RunCheckedCtx(ctx, 1<<40) // far more cycles than 10ms allows
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if sys.now == 0 {
		t.Fatal("deadline fired before any progress")
	}
	// The machine stopped at a consistent boundary: it must run on cleanly.
	if err := sys.RunChecked(10_000); err != nil {
		t.Fatalf("machine not resumable after ctx stop: %v", err)
	}
}

func TestRunCheckedCtxMatchesRun(t *testing.T) {
	a := twoCore(t, config.DAGguise)
	a.EnableEgressTrace()
	a.Run(50_000)

	b := twoCore(t, config.DAGguise)
	b.EnableEgressTrace()
	if err := b.RunCheckedCtx(context.Background(), 50_000); err != nil {
		t.Fatal(err)
	}
	ta, tb := a.EgressTrace(1), b.EgressTrace(1)
	if len(ta) == 0 || len(ta) != len(tb) {
		t.Fatalf("egress traces differ: %d vs %d events", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("event %d: %+v vs %+v", i, ta[i], tb[i])
		}
	}
}

func TestMeasureCheckedCtxCancel(t *testing.T) {
	sys := twoCore(t, config.Insecure)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.MeasureCheckedCtx(ctx, 10_000, 10_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestWatchdogTripLeavesSystemRestartable pins the recovery contract
// supervised campaigns depend on: a watchdog deadlock report mid-run must leave
// the machine in a consistent state, so that widening the budget (or
// clearing the stall) lets the same System resume and finish.
func TestWatchdogTripLeavesSystemRestartable(t *testing.T) {
	sys := twoCore(t, config.DAGguise)
	// A finite DRAM stall longer than the stall budget: the watchdog must
	// report deadlock while the storm is still in force.
	err := sys.AttachFaults(fault.Schedule{Events: []fault.Event{
		{Kind: fault.DRAMStall, Start: 2_000, Duration: 40_000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetWatchdog(Watchdog{StallBudget: 5_000})
	runErr := sys.RunChecked(100_000)
	var se *SimError
	if !errors.As(runErr, &se) || se.Invariant != InvariantDeadlock {
		t.Fatalf("got %v, want deadlock SimError", runErr)
	}
	tripCycle := sys.now

	// Recovery: widen the budget past the remaining storm and run on. The
	// same System must make it to the end without another trip.
	sys.SetWatchdog(Watchdog{StallBudget: 60_000})
	if err := sys.RunChecked(100_000 - (tripCycle - 0)); err != nil {
		t.Fatalf("system not restartable after watchdog trip: %v", err)
	}
	if sys.now < 100_000 {
		t.Fatalf("resumed run stopped early at cycle %d", sys.now)
	}

	// And the restarted machine still checkpoints cleanly.
	if _, err := sys.SaveState(); err != nil {
		t.Fatalf("post-recovery SaveState failed: %v", err)
	}
}
