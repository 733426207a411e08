package sim

import (
	"encoding/json"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
)

// clusterFaultSched draws the randomized campaign the cluster fault tests
// share: storms, response delay/drop, backpressure and egress stalls over
// the first three quarters of the run.
func clusterFaultSched(horizon uint64) fault.Schedule {
	return fault.Campaign(4242, fault.CampaignConfig{
		Horizon:  horizon * 3 / 4,
		Domains:  []mem.Domain{1},
		MaxStorm: horizon / 32,
		Events:   16,
	})
}

// TestClusterNonInterferenceUnderFaults extends the cluster-scale twin
// audit to the faulty machine: two DAGguise clusters differing only in
// the protected tenants' secret, subjected to an identical fault
// campaign (keyed on cycle and domain only), must still produce equal
// audit digests — and the insecure baseline must still leak, so the
// faults have not destroyed the observable.
func TestClusterNonInterferenceUnderFaults(t *testing.T) {
	const cycles = 20_000
	sched := clusterFaultSched(cycles)
	run := func(scheme config.Scheme, secret int) (string, ClusterCounters) {
		cfg := clusterCfg(t, 2, 12, scheme)
		c, err := NewCluster(cfg, 0, 2, 1234, secret)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AttachFaults(sched); err != nil {
			t.Fatal(err)
		}
		mustRun(t, c, cycles)
		return c.AuditDigest(), c.Counters()
	}
	a, ca := run(config.DAGguise, 11)
	b, _ := run(config.DAGguise, 12)
	if a != b {
		t.Errorf("DAGguise leaks under faults: secret 11 digest %s != secret 12 digest %s", a, b)
	}
	if ca.FaultDeferred == 0 && ca.FaultStallHits == 0 {
		t.Fatalf("fault campaign never fired; the twin comparison is vacuous: %+v", ca)
	}
	ia, _ := run(config.Insecure, 11)
	ib, _ := run(config.Insecure, 12)
	if ia == ib {
		t.Error("insecure baseline did not leak under faults; observable too coarse")
	}
}

// TestClusterFaultCheckpointRoundTrip pins the deferred-response state
// round-trip: a faulted cluster interrupted mid-run (potentially with
// responses withheld by delay/drop faults in flight) and resumed from
// its serialized state must finish bit-identical to an uninterrupted
// run.
func TestClusterFaultCheckpointRoundTrip(t *testing.T) {
	const cycles = 20_000
	sched := clusterFaultSched(cycles)
	build := func() *System {
		cfg := clusterCfg(t, 2, 10, config.DAGguise)
		c, err := NewCluster(cfg, 0, 2, 99, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AttachFaults(sched); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := build()
	mustRun(t, ref, cycles)
	if c := ref.Counters(); c.FaultDeferred == 0 {
		t.Skip("campaign produced no deferred responses; round-trip has nothing fault-specific to pin")
	}

	// Interrupt at several points so at least one lands with deferred
	// responses in flight.
	for _, cut := range []uint64{cycles / 4, cycles / 2, cycles * 3 / 4} {
		half := build()
		mustRun(t, half, cut)
		st, err := half.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var decoded SystemState
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatal(err)
		}
		resumed := build()
		if err := resumed.RestoreState(&decoded); err != nil {
			t.Fatal(err)
		}
		mustRun(t, resumed, cycles-cut)

		if got, want := resumed.AuditDigest(), ref.AuditDigest(); got != want {
			t.Fatalf("cut %d: resumed digest %s != uninterrupted %s", cut, got, want)
		}
		refSt, err := ref.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		resSt, err := resumed.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		refBlob, _ := json.Marshal(refSt)
		resBlob, _ := json.Marshal(resSt)
		if string(refBlob) != string(resBlob) {
			t.Fatalf("cut %d: resumed final state differs from uninterrupted run", cut)
		}
	}
}

// TestShardFaultScheduleMatchesClusterDomains guards the fleet-to-sim
// seam: the per-shard campaign derived by the pool validates and only
// targets domains the shard's clusters actually protect.
func TestShardFaultScheduleMatchesClusterDomains(t *testing.T) {
	cfg := clusterCfg(t, 2, 10, config.DAGguise)
	sched := fault.Campaign(7, fault.CampaignConfig{
		Horizon: 10_000,
		Domains: protectedDomains(cfg.Protected),
		Events:  8,
	})
	c, err := NewCluster(cfg, 0, 2, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachFaults(sched); err != nil {
		t.Fatalf("cluster rejected its own derived campaign: %v", err)
	}
}

// protectedDomains mirrors fleet.Sweep.ShardFaultSchedule's domain
// derivation: domains 1..Protected.
func protectedDomains(protected int) []mem.Domain {
	var doms []mem.Domain
	for i := 0; i < protected; i++ {
		doms = append(doms, mem.Domain(i+1))
	}
	return doms
}
