package sim

import (
	"testing"

	"dagguise/internal/audit"
	"dagguise/internal/config"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
)

func TestAuditTapStreamSecretIndependent(t *testing.T) {
	sched := fault.Campaign(42, fault.CampaignConfig{Horizon: 120_000, Domains: []mem.Domain{1}, MaxStorm: 4_000, Events: 12})
	run := func(secret int64) []audit.Sample {
		vt, err := victim.DocDistTrace(secret, victim.DefaultDocDist())
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Default(2, config.DAGguise)
		sys, err := New(cfg, []CoreSpec{
			{Name: "docdist", Source: &trace.Loop{Inner: vt}, Protected: true},
			specFor(t, "lbm", 5, false),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AttachFaults(sched); err != nil {
			t.Fatal(err)
		}
		tap := audit.NewTap()
		sys.AuditResponses(1, tap)
		mustRun(t, sys, 120_000)
		return tap.Samples()
	}
	a := run(11)
	b := run(12)
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	t.Logf("identical tap streams, %d samples", len(a))
}
