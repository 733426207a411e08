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

func TestRunHonoursCancel(t *testing.T) {
	sys := twoCore(t, config.DAGguise)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sys.Run(ctx, 100_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if sys.now != 0 {
		t.Fatalf("pre-canceled context still advanced the machine to cycle %d", sys.now)
	}
}

func TestRunDeadlineStopsMidRun(t *testing.T) {
	sys := twoCore(t, config.DAGguise)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := sys.Run(ctx, 1<<40) // far more cycles than 10ms allows
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if sys.now == 0 {
		t.Fatal("deadline fired before any progress")
	}
	// The machine stopped at a consistent boundary: it must run on cleanly.
	sys.SetWatchdog(DefaultWatchdog())
	if err := sys.Run(context.Background(), 10_000); err != nil {
		t.Fatalf("machine not resumable after ctx stop: %v", err)
	}
}

func TestMeasureHonoursCancel(t *testing.T) {
	sys := twoCore(t, config.Insecure)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Measure(ctx, 10_000, 10_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestOnlySetWatchdogArms pins the one arming path: Run never arms a
// watchdog, so a machine stuck behind a permanent DRAM stall runs on
// without error until SetWatchdog arms one, and Runs shorter than the
// stall budget then keep the progress marks between calls and report the
// deadlock: at the cycle, and with the message, that a Tick loop over
// the same machine reports.
func TestOnlySetWatchdogArms(t *testing.T) {
	stalled := func() *System {
		sys := twoCore(t, config.Insecure)
		err := sys.AttachFaults(fault.Schedule{Events: []fault.Event{
			{Kind: fault.DRAMStall, Start: 2_000, Duration: fault.Forever},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	ticked := stalled()
	for i := 0; i < 60_000; i++ {
		if err := ticked.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	ticked.SetWatchdog(Watchdog{StallBudget: 5_000})
	var want error
	for i := 0; i < 10_000 && want == nil; i++ {
		want = ticked.Tick()
	}

	sys := stalled()
	mustRun(t, sys, 60_000) // stalled for longer than DefaultWatchdog's budget
	sys.SetWatchdog(Watchdog{StallBudget: 5_000})
	for i := 0; i < 10; i++ {
		if err := sys.Run(context.Background(), 1_000); err != nil {
			var se *SimError
			if !errors.As(err, &se) || se.Invariant != InvariantDeadlock {
				t.Fatalf("got %v, want a deadlock SimError", err)
			}
			if want == nil || err.Error() != want.Error() || sys.now != ticked.now {
				t.Fatalf("Run reported %q at cycle %d; the tick loop %v at cycle %d", err, sys.now, want, ticked.now)
			}
			return
		}
	}
	t.Fatal("1k-cycle runs never reported the stall to a 5k-cycle budget")
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
	runErr := sys.Run(context.Background(), 100_000)
	var se *SimError
	if !errors.As(runErr, &se) || se.Invariant != InvariantDeadlock {
		t.Fatalf("got %v, want deadlock SimError", runErr)
	}
	tripCycle := sys.now

	// Recovery: widen the budget past the remaining storm and run on. The
	// same System must make it to the end without another trip.
	sys.SetWatchdog(Watchdog{StallBudget: 60_000})
	if err := sys.Run(context.Background(), 100_000-tripCycle); err != nil {
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
