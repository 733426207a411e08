package attack

import (
	"context"
	"testing"

	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/obs"
	"dagguise/internal/rdag"
)

func auditConfig() audit.Config {
	cfg := audit.DefaultConfig()
	cfg.Window = 50
	cfg.Permutations = 100
	cfg.Bootstrap = 100
	return cfg
}

// TestTapNonInterference pins the probe hook's measurement-only contract:
// the attacker's latency sequence is bit-identical with and without a tap,
// and the tap's samples mirror the returned latencies.
func TestTapNonInterference(t *testing.T) {
	s0, _ := figure5Secrets()
	run := func(tap *audit.Tap) []uint64 {
		h, err := NewHarness(config.Insecure, rdag.Template{}, camouflage.Distribution{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		h.SetAuditTap(tap)
		lats, err := h.Run(s0, defaultProbe(), 150, 0)
		if err != nil {
			t.Fatal(err)
		}
		return lats
	}
	plain := run(nil)
	tap := audit.NewTap()
	tapped := run(tap)
	if len(plain) != len(tapped) {
		t.Fatalf("latency counts differ: %d vs %d", len(plain), len(tapped))
	}
	for i := range plain {
		if plain[i] != tapped[i] {
			t.Fatalf("latency %d differs with tap: %d vs %d", i, plain[i], tapped[i])
		}
	}
	samples := tap.Samples()
	if len(samples) != len(tapped) {
		t.Fatalf("tap recorded %d samples for %d probes", len(samples), len(tapped))
	}
	for i, s := range samples {
		if s.Value != tapped[i] {
			t.Fatalf("tap sample %d value %d != latency %d", i, s.Value, tapped[i])
		}
	}
}

func TestAuditLeakageInsecureExceedsBudget(t *testing.T) {
	s0, s1 := figure5Secrets()
	rep, err := AuditLeakage(context.Background(), config.Insecure, rdag.Template{}, camouflage.Distribution{},
		s0, s1, defaultProbe(), 150, auditConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WithinBudget {
		t.Fatal("insecure baseline passed the leakage budget")
	}
	if rep.FirstExceeded != 0 {
		t.Fatalf("first exceeded window = %d, want 0 (the channel leaks immediately)", rep.FirstExceeded)
	}
	if rep.FirstExceededCycle == 0 {
		t.Fatal("no cycle index reported for the leaking window")
	}
	if rep.Scheme != "insecure" {
		t.Fatalf("scheme = %q", rep.Scheme)
	}
}

func TestAuditLeakageDAGguiseWithinBudget(t *testing.T) {
	s0, s1 := figure5Secrets()
	rep, err := AuditLeakage(context.Background(), config.DAGguise, rdag.Template{}, camouflage.Distribution{},
		s0, s1, defaultProbe(), 150, auditConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.WithinBudget {
		t.Fatalf("DAGguise flagged: first window %d at cycle %d, max MI %f",
			rep.FirstExceeded, rep.FirstExceededCycle, rep.MaxMI)
	}
	for _, w := range rep.Windows {
		if w.MI != 0 || w.T != 0 || w.KS != 0 {
			t.Fatalf("DAGguise window %d shows nonzero statistics: %+v", w.Index, w)
		}
	}
}

func TestAuditLeakageAttachObserves(t *testing.T) {
	s0, s1 := figure5Secrets()
	mx := obs.NewRegistry(3)
	cfg := auditConfig()
	_, err := AuditLeakage(context.Background(), config.DAGguise, rdag.Template{}, camouflage.Distribution{},
		s0, s1, defaultProbe(), 60, cfg, func(h *Harness) { h.Observe(mx, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if mx.CounterTotal(obs.CtrIssuedReads) == 0 {
		t.Fatal("attach hook did not wire the registry (no issued reads counted)")
	}
	if mx.CounterTotal(obs.CtrShaperFakes) == 0 {
		t.Fatal("shaper not observed through the harness attach hook")
	}
}
