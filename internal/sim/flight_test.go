package sim

import (
	"reflect"
	"testing"
	"time"

	"dagguise/internal/config"
	"dagguise/internal/obs"
)

// TestFullObservabilityNonInterference extends the PR 2 invariant to the
// whole flight recorder: with metrics, ring tracing AND the
// cycle-attribution profiler all enabled at once, the shaped egress
// stream must stay bit-identical to a fully disabled run, and must not
// depend on the victim secret. The cluster case holds NewCluster-built
// twins to the same bar on their attacker-observable digest and counters.
func TestFullObservabilityNonInterference(t *testing.T) {
	const cycles = 60_000
	attach := func(sys *System) {
		tr := obs.NewTracer(1 << 16)
		sys.Observe(obs.NewRegistry(sys.NumDomains()), tr)
		sys.Profile(obs.NewCycleProfile())
	}
	t.Run("new", func(t *testing.T) {
		run := func(secret int64, everything bool) []EgressEvent {
			sys := obsSystem(t, secret)
			if everything {
				attach(sys)
			}
			sys.EnableEgressTrace()
			if err := sys.RunChecked(cycles); err != nil {
				t.Fatal(err)
			}
			return sys.EgressTrace(1)
		}
		plain := run(11, false)
		full := run(11, true)
		if len(plain) == 0 {
			t.Fatal("empty egress trace")
		}
		if !reflect.DeepEqual(plain, full) {
			t.Fatal("full flight recorder perturbed the shaped egress stream")
		}
		other := run(12, true)
		if !reflect.DeepEqual(full, other) {
			t.Fatal("secret leaked into egress with the full flight recorder on")
		}
	})
	t.Run("cluster", func(t *testing.T) {
		run := func(secret int, everything bool) (string, ClusterCounters) {
			sys, err := NewCluster(clusterCfg(t, 2, 12, config.DAGguise), 0, 2, 1234, secret)
			if err != nil {
				t.Fatal(err)
			}
			if everything {
				attach(sys)
			}
			if err := sys.RunChecked(cycles / 3); err != nil {
				t.Fatal(err)
			}
			return sys.AuditDigest(), sys.Counters()
		}
		var digests []string
		for _, secret := range []int{11, 12} {
			bareDigest, bare := run(secret, false)
			fullDigest, full := run(secret, true)
			if bare.TapSamples == 0 {
				t.Fatalf("secret %d: cluster recorded no attacker-observable samples", secret)
			}
			if bareDigest != fullDigest || !reflect.DeepEqual(bare, full) {
				t.Fatalf("secret %d: full flight recorder perturbed the cluster:\nbare %s %+v\nfull %s %+v",
					secret, bareDigest, bare, fullDigest, full)
			}
			digests = append(digests, fullDigest)
		}
		if digests[0] != digests[1] {
			t.Fatal("secret leaked into the cluster audit digest with the full flight recorder on")
		}
	})
}

// TestCycleAttributionCoverage is the acceptance bar for the ROADMAP's
// event-driven refactor: the profiler's report must account for >=95%
// of the wall time of the BenchmarkSystemTick loop shape (same two-core
// DAGguise system, ticked back to back).
func TestCycleAttributionCoverage(t *testing.T) {
	sys := benchSystem(t)
	prof := obs.NewCycleProfile()
	sys.Profile(prof)
	// Warm up out of profile, then measure a tight tick loop.
	if err := sys.RunChecked(5_000); err != nil {
		t.Fatal(err)
	}
	prof.Reset()
	const ticks = 200_000
	start := time.Now()
	if err := sys.RunChecked(ticks); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)

	r := prof.Report(wall, ticks)
	if r.Coverage < 0.95 {
		t.Fatalf("cycle attribution covers %.1f%% of wall time, want >= 95%%\n%s", 100*r.Coverage, r)
	}
	if r.Coverage > 1.02 {
		t.Fatalf("coverage %.3f exceeds wall time: laps are double counting\n%s", r.Coverage, r)
	}
	// Every core component of the tick loop must appear.
	seen := map[string]bool{}
	for _, row := range r.Buckets {
		seen[row.Name] = true
	}
	for _, want := range []string{"cpu", "shaper", "egress", "sched", "dram", "memctrl", "route", "harness"} {
		if !seen[want] {
			t.Errorf("bucket %q missing from the report:\n%s", want, r)
		}
	}
}

// benchSystem mirrors the root BenchmarkSystemTick configuration: the
// two-core DAGguise machine whose tick cost gates the event-driven
// refactor.
func benchSystem(t *testing.T) *System {
	t.Helper()
	return obsSystem(t, 11)
}
