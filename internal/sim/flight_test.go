package sim

import (
	"reflect"
	"testing"
	"time"

	"dagguise/internal/config"
	"dagguise/internal/obs"
)

// TestFullObservabilityNonInterference extends the PR 2 invariant to the
// whole flight recorder: with metrics, ring tracing, spans AND the
// cycle-attribution profiler all enabled at once, the shaped egress
// stream must stay bit-identical to a fully disabled run, and must not
// depend on the victim secret. The cluster case holds NewCluster-built
// twins to the same bar on their attacker-observable digest and counters.
func TestFullObservabilityNonInterference(t *testing.T) {
	const cycles = 60_000
	attach := func(sys *System) {
		tr := obs.NewTracer(1 << 16)
		sys.Observe(obs.NewRegistry(sys.NumDomains()), tr)
		sys.TraceSpans(obs.NewSpans(tr))
		sys.Profile(obs.NewCycleProfile())
	}
	t.Run("new", func(t *testing.T) {
		run := func(secret int64, everything bool) []EgressEvent {
			sys := obsSystem(t, secret)
			if everything {
				attach(sys)
				root := sys.Spans().Begin("run", obs.CompSystem, 0, 0, 0, sys.Now())
				defer sys.Spans().End(root, sys.Now())
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

// TestSpanNestingAcrossCheckpoint pins the flight-recorder checkpoint
// contract at system level: spans open at SaveState reopen identically
// after RestoreState into a fresh system — same IDs, parents, names and
// start cycles — and the reopened recorder emits begin events into the
// new tracer so the post-restore Perfetto export nests exactly like an
// uninterrupted run's.
func TestSpanNestingAcrossCheckpoint(t *testing.T) {
	sys := obsSystem(t, 11)
	tr := obs.NewTracer(1 << 16)
	sp := obs.NewSpans(tr)
	sys.Observe(obs.NewRegistry(sys.NumDomains()), tr)
	sys.TraceSpans(sp)

	job := sp.Begin("job", obs.CompRunner, 0, 1, 0, sys.Now())
	if err := sys.RunChecked(10_000); err != nil {
		t.Fatal(err)
	}
	chunk := sp.Begin("chunk", obs.CompRunner, 0, 1, job, sys.Now())
	if err := sys.RunChecked(5_000); err != nil {
		t.Fatal(err)
	}

	st, err := sys.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans == nil || len(st.Spans.Open) != 2 {
		t.Fatalf("state spans = %+v, want 2 open", st.Spans)
	}

	sys2 := obsSystem(t, 11)
	tr2 := obs.NewTracer(1 << 16)
	sp2 := obs.NewSpans(tr2)
	sys2.Observe(obs.NewRegistry(sys2.NumDomains()), tr2)
	sys2.TraceSpans(sp2)
	if err := sys2.RestoreState(st); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(sp2.Open(), sp.Open()) {
		t.Fatalf("open spans diverge after restore:\ngot  %+v\nwant %+v", sp2.Open(), sp.Open())
	}
	// The restored tracer holds reopened begin events for both spans, at
	// their original start cycles, before any post-restore events.
	var begins []obs.Event
	for _, ev := range tr2.Events() {
		if ev.Kind == obs.EvSpanBegin {
			begins = append(begins, ev)
		}
	}
	if len(begins) != 2 || begins[0].Span != job || begins[1].Span != chunk {
		t.Fatalf("reopened begins = %+v", begins)
	}
	if begins[1].Parent != job {
		t.Fatalf("chunk span lost its parent: %+v", begins[1])
	}

	// Ending the reopened spans after more simulated work closes them on
	// both recorders identically, and new IDs continue past the old ones.
	if err := sys2.RunChecked(5_000); err != nil {
		t.Fatal(err)
	}
	sp2.End(chunk, sys2.Now())
	sp2.End(job, sys2.Now())
	if next := sp2.Begin("post", obs.CompRunner, 0, 1, 0, sys2.Now()); next != chunk+1 {
		t.Fatalf("post-restore span ID = %d, want %d", next, chunk+1)
	}
}

// TestSpansInMeasure checks Measure brackets warmup and window in
// nested spans on the attached recorder.
func TestSpansInMeasure(t *testing.T) {
	sys := obsSystem(t, 11)
	tr := obs.NewTracer(1 << 16)
	sys.Observe(nil, tr)
	sys.TraceSpans(obs.NewSpans(tr))
	sys.Measure(2_000, 10_000)

	var names []string
	var parents []uint64
	for _, ev := range tr.Events() {
		if ev.Kind == obs.EvSpanBegin {
			names = append(names, ev.Name)
			parents = append(parents, ev.Parent)
		}
	}
	if !reflect.DeepEqual(names, []string{"measure", "warmup", "window"}) {
		t.Fatalf("measure spans = %v", names)
	}
	if parents[0] != 0 || parents[1] != 1 || parents[2] != 1 {
		t.Fatalf("measure span parents = %v", parents)
	}
	if open := sys.Spans().Open(); len(open) != 0 {
		t.Fatalf("spans left open after Measure: %+v", open)
	}
}
