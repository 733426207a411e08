package sim

import (
	"testing"

	"dagguise/internal/audit"
)

// TestAuditTapNonInterference is the audit-layer analogue of the
// observability invariant: attaching a leakage-audit tap must leave the
// shaped egress stream bit-identical, because a tap that perturbed timing
// would itself be a side channel.
func TestAuditTapNonInterference(t *testing.T) {
	const cycles = 60_000
	run := func(secret int64, tapped bool) ([]EgressEvent, *audit.Tap) {
		sys := obsSystem(t, secret)
		var tap *audit.Tap
		if tapped {
			tap = audit.NewTap()
		}
		// Attach unconditionally: a nil tap via the nil-receiver no-op
		// path must behave exactly like no attachment.
		sys.AuditResponses(1, tap)
		sys.EnableEgressTrace()
		mustRun(t, sys, cycles)
		return sys.EgressTrace(1), tap
	}

	off, _ := run(11, false)
	on, tap := run(11, true)
	if len(off) == 0 {
		t.Fatal("no shaped egress recorded")
	}
	if len(off) != len(on) {
		t.Fatalf("egress length differs with audit tap: %d vs %d", len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("egress event %d differs with audit tap: %+v vs %+v", i, off[i], on[i])
		}
	}
	if tap.Len() == 0 {
		t.Fatal("audit tap recorded nothing")
	}
	// The recorded stream must be monotone in cycle with self-consistent
	// gaps (gap i = cycle i - cycle i-1).
	samples := tap.Samples()
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycle < samples[i-1].Cycle {
			t.Fatalf("sample %d cycle regressed", i)
		}
		if samples[i].Value != samples[i].Cycle-samples[i-1].Cycle {
			t.Fatalf("sample %d gap %d != cycle delta %d",
				i, samples[i].Value, samples[i].Cycle-samples[i-1].Cycle)
		}
	}
}

// TestAuditTapSecretIndependentUnderDAGguise runs two different victim
// secrets through tapped systems: the response-timing stream the tap
// records must be identical, the full-system version of the Table 1 claim.
func TestAuditTapSecretIndependentUnderDAGguise(t *testing.T) {
	const cycles = 60_000
	run := func(secret int64) []audit.Sample {
		sys := obsSystem(t, secret)
		tap := audit.NewTap()
		sys.AuditResponses(1, tap)
		mustRun(t, sys, cycles)
		return tap.Samples()
	}
	a, b := run(11), run(13)
	if len(a) == 0 {
		t.Fatal("no samples recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("sample counts differ across secrets: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across secrets: %+v vs %+v", i, a[i], b[i])
		}
	}
}
