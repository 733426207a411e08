package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
	"dagguise/internal/shaper"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
)

// faultVictimSpec is docdistSpec with a selectable secret seed, for the
// non-interference runs that differ only in the victim's secret.
func faultVictimSpec(t *testing.T, secret int64) CoreSpec {
	t.Helper()
	tr, err := victim.DocDistTrace(secret, victim.DefaultDocDist())
	if err != nil {
		t.Fatal(err)
	}
	s := docdistSpec(t, true)
	s.Source = &trace.Loop{Inner: tr}
	return s
}

// TestNonInterferenceUnderFaults is the headline robustness property: two
// DAGguise runs that differ ONLY in the victim's secret, subjected to an
// identical randomized fault schedule (DRAM storms, response delay/drop,
// shaper backpressure, egress stalls), must produce bit-identical shaped
// egress timing traces. Fault injection is keyed on (cycle, domain) only,
// so it cannot act as a secret-dependent disturbance — this extends the
// paper's security argument from the nominal machine to the faulty one.
func TestNonInterferenceUnderFaults(t *testing.T) {
	const cycles = 80_000
	sched := fault.Campaign(1234, fault.CampaignConfig{
		Horizon:  60_000,
		Domains:  []mem.Domain{1},
		MaxStorm: 2_000, // well under the watchdog stall budget
	})
	run := func(secret int64) []EgressEvent {
		cfg := config.Default(2, config.DAGguise)
		sys, err := New(cfg, []CoreSpec{faultVictimSpec(t, secret), specFor(t, "lbm", 5, false)})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AttachFaults(sched); err != nil {
			t.Fatal(err)
		}
		sys.EnableEgressTrace()
		sys.SetWatchdog(DefaultWatchdog())
		if err := sys.Run(context.Background(), cycles); err != nil {
			t.Fatalf("secret %d: %v", secret, err)
		}
		return sys.EgressTrace(1)
	}
	a := run(11)
	b := run(12)
	if len(a) < 100 {
		t.Fatalf("trace too short to be meaningful: %d events", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths diverge: secret A %d events, secret B %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at event %d: secret A %+v, secret B %+v", i, a[i], b[i])
		}
	}
}

// TestPermanentStallBecomesDeadlockError checks the watchdog's core
// promise: a DRAM device that never recovers turns into a structured
// deadlock SimError within the stall budget instead of hanging the run.
func TestPermanentStallBecomesDeadlockError(t *testing.T) {
	cfg := config.Default(2, config.Insecure)
	sys, err := New(cfg, []CoreSpec{docdistSpec(t, false), specFor(t, "lbm", 5, false)})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.AttachFaults(fault.Schedule{Events: []fault.Event{
		{Kind: fault.DRAMStall, Start: 2_000, Duration: fault.Forever},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetWatchdog(Watchdog{StallBudget: 8_000})
	err = sys.Run(context.Background(), 200_000)
	if err == nil {
		t.Fatal("permanently stalled DRAM ran to completion")
	}
	var serr *SimError
	if !errors.As(err, &serr) {
		t.Fatalf("error = %T (%v), want *SimError", err, err)
	}
	if serr.Invariant != InvariantDeadlock {
		t.Fatalf("invariant = %s, want %s (%v)", serr.Invariant, InvariantDeadlock, serr)
	}
	if serr.Cycle <= 2_000 {
		t.Fatalf("deadlock reported at cycle %d, before the storm began", serr.Cycle)
	}
	if sys.Now() > 100_000 {
		t.Fatalf("detection took until cycle %d; want bounded by the stall budget", sys.Now())
	}
	if len(serr.Queue) == 0 {
		t.Fatalf("deadlock error carries no queue snapshot: %v", serr)
	}
	if serr.Error() == "" {
		t.Fatal("empty error string")
	}
}

// TestFiniteStormRecovers checks the flip side: a bounded refresh storm
// shorter than the stall budget must NOT trip the watchdog, and the
// machine must make normal progress once the storm clears.
func TestFiniteStormRecovers(t *testing.T) {
	cfg := config.Default(2, config.DAGguise)
	sys, err := New(cfg, []CoreSpec{docdistSpec(t, true), specFor(t, "lbm", 5, false)})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.AttachFaults(fault.Schedule{Events: []fault.Event{
		{Kind: fault.DRAMStall, Start: 5_000, Duration: 15_000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetWatchdog(DefaultWatchdog())
	res, err := sys.Measure(context.Background(), 10_000, 100_000)
	if err != nil {
		t.Fatalf("finite storm tripped the watchdog: %v", err)
	}
	for _, c := range res.Cores {
		if c.IPC <= 0 {
			t.Fatalf("core %s made no progress after the storm", c.Name)
		}
	}
	if _, ok := res.EgressDepths[1]; !ok {
		t.Fatalf("no egress depth recorded for the shaped domain: %+v", res.EgressDepths)
	}
	if res.EgressMaxDepth < res.EgressDepths[1] {
		t.Fatalf("EgressMaxDepth %d below domain depth %d", res.EgressMaxDepth, res.EgressDepths[1])
	}
}

// TestEgressStallTriggersLivelock checks the per-domain egress high-water
// invariant: a permanently blocked shaper→controller path makes emissions
// pile up until the livelock invariant fires for that domain.
func TestEgressStallTriggersLivelock(t *testing.T) {
	cfg := config.Default(2, config.DAGguise)
	sys, err := New(cfg, []CoreSpec{docdistSpec(t, true), specFor(t, "lbm", 5, false)})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.AttachFaults(fault.Schedule{Events: []fault.Event{
		{Kind: fault.EgressStall, Domain: 1, Start: 0, Duration: fault.Forever},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The pattern driver holds one slot in flight per sequence (8 here),
	// so depth plateaus near 8: a high-water mark of 4 must trip.
	sys.SetWatchdog(Watchdog{EgressHighWater: 4})
	err = sys.Run(context.Background(), 50_000)
	var serr *SimError
	if !errors.As(err, &serr) {
		t.Fatalf("error = %T (%v), want *SimError", err, err)
	}
	if serr.Invariant != InvariantLivelock {
		t.Fatalf("invariant = %s, want %s (%v)", serr.Invariant, InvariantLivelock, serr)
	}
	if serr.Domain != 1 {
		t.Fatalf("livelock attributed to domain %d, want 1 (%v)", serr.Domain, serr)
	}
	if serr.Egress[1] <= 4 {
		t.Fatalf("egress snapshot %v does not show the overflow", serr.Egress)
	}
}

// TestCorruptedResponseIsProtocolError checks the protocol invariant on
// both constructors: a response whose ID matches no outstanding request (a
// corrupted or duplicated completion) surfaces as a protocol SimError
// wrapping the shaper's typed error, and a response for a domain the
// machine does not have as a protocol SimError — never a panic or a silent
// drop.
func TestCorruptedResponseIsProtocolError(t *testing.T) {
	build := map[string]func(t *testing.T) *System{
		"new": func(t *testing.T) *System {
			sys, err := New(config.Default(2, config.DAGguise), []CoreSpec{docdistSpec(t, true), specFor(t, "lbm", 5, false)})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		},
		"cluster": func(t *testing.T) *System {
			sys, err := NewCluster(clusterCfg(t, 2, 10, config.DAGguise), 0, 2, 99, 11)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		},
	}
	for _, tc := range []struct {
		engine      string
		dom         mem.Domain
		wantUnknown bool // want a wrapped *shaper.UnknownResponseError
	}{
		{"new", 1, true},
		{"new", 77, false},
		{"cluster", 1, true},
		{"cluster", 77, false},
	} {
		t.Run(fmt.Sprintf("%s/domain%d", tc.engine, tc.dom), func(t *testing.T) {
			sys := build[tc.engine](t)
			mustRun(t, sys, 5_000)
			// Inject a bogus completion on the controller→tenant boundary,
			// as a dropped-and-corrupted redelivery would.
			ch := sys.chans[0]
			ch.deferred = append(ch.deferred, DeferredResponse{Until: sys.Now(), Resp: mem.Response{ID: 1 << 62, Domain: tc.dom}})
			err := sys.Tick()
			var serr *SimError
			if !errors.As(err, &serr) {
				t.Fatalf("error = %T (%v), want *SimError", err, err)
			}
			if serr.Invariant != InvariantProtocol {
				t.Fatalf("invariant = %s, want %s (%v)", serr.Invariant, InvariantProtocol, serr)
			}
			var uerr *shaper.UnknownResponseError
			if got := errors.As(err, &uerr); got != tc.wantUnknown {
				t.Fatalf("wraps *shaper.UnknownResponseError = %v, want %v (%v)", got, tc.wantUnknown, serr.Err)
			}
		})
	}
}

// TestAttachFaultsRejectsInvalidSchedule checks schedule validation at the
// system boundary.
func TestAttachFaultsRejectsInvalidSchedule(t *testing.T) {
	cfg := config.Default(2, config.Insecure)
	sys, err := New(cfg, []CoreSpec{docdistSpec(t, false), specFor(t, "lbm", 5, false)})
	if err != nil {
		t.Fatal(err)
	}
	bad := fault.Schedule{Events: []fault.Event{{Kind: fault.DRAMStall, Start: 10, Duration: 0}}}
	if err := sys.AttachFaults(bad); err == nil {
		t.Fatal("zero-duration event accepted")
	}
}
