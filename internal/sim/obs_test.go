package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/obs"
	"dagguise/internal/rdag"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// obsSystem builds the standard two-core DAGguise pair with a configurable
// victim secret, for observability and non-interference tests.
func obsSystem(t *testing.T, secret int64) *System {
	t.Helper()
	tr, err := victim.DocDistTrace(secret, victim.DefaultDocDist())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(2, config.DAGguise)
	sys, err := New(cfg, []CoreSpec{
		{
			Name:      "docdist",
			Source:    &trace.Loop{Inner: tr},
			Protected: true,
			Defense:   rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8},
		},
		specFor(t, "lbm", 5, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestObservabilityNonInterference is the tentpole invariant: attaching a
// registry and tracer must leave the shaped egress stream bit-identical.
// It checks both axes — same secret with observability on vs off, and two
// different secrets both with observability on.
func TestObservabilityNonInterference(t *testing.T) {
	const cycles = 60_000
	run := func(secret int64, observe bool) []EgressEvent {
		sys := obsSystem(t, secret)
		if observe {
			sys.Observe(obs.NewRegistry(sys.NumDomains()), obs.NewTracer(1<<16))
		}
		sys.EnableEgressTrace()
		mustRun(t, sys, cycles)
		return sys.EgressTrace(1)
	}
	plain := run(11, false)
	observed := run(11, true)
	if len(plain) == 0 {
		t.Fatal("empty egress trace")
	}
	if len(plain) != len(observed) {
		t.Fatalf("observability changed egress length: %d vs %d", len(plain), len(observed))
	}
	for i := range plain {
		if plain[i] != observed[i] {
			t.Fatalf("observability perturbed egress at event %d: %+v vs %+v", i, plain[i], observed[i])
		}
	}
	other := run(12, true)
	if len(observed) != len(other) {
		t.Fatalf("secret leaked into egress length with observability on: %d vs %d", len(observed), len(other))
	}
	for i := range observed {
		if observed[i] != other[i] {
			t.Fatalf("secret leaked at event %d with observability on: %+v vs %+v", i, observed[i], other[i])
		}
	}
}

// TestChromeTraceDeterminism pins byte-identical exports across two runs of
// the same seed: the trace pipeline introduces no map-order or timing
// nondeterminism.
func TestChromeTraceDeterminism(t *testing.T) {
	export := func() []byte {
		sys := obsSystem(t, 11)
		tr := obs.NewTracer(1 << 16)
		sys.Observe(obs.NewRegistry(sys.NumDomains()), tr)
		mustRun(t, sys, 20_000)
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical-seed runs produced different trace files")
	}
	if !json.Valid(a) {
		t.Fatal("trace export is not valid JSON")
	}
}

// TestChromeTraceGoldenRun pins the full export of a tiny two-domain run.
// Any change to event emission sites, ordering or the JSON shape shows up
// as a diff against testdata/tiny_run_trace.golden (regenerate with
// `go test ./internal/sim -run ChromeTraceGoldenRun -update`).
func TestChromeTraceGoldenRun(t *testing.T) {
	sys := obsSystem(t, 11)
	tr := obs.NewTracer(1 << 16)
	sys.Observe(obs.NewRegistry(sys.NumDomains()), tr)
	mustRun(t, sys, 3_000)
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "tiny_run_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run ChromeTraceGoldenRun -update`)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("trace export drifted from golden file; if the change is intended, regenerate with -update")
	}
}

// TestMeasureMetricsPopulated checks that a measured window carries a
// populated metrics snapshot: row-buffer outcomes, shaper activity, core
// retirement and the per-tick occupancy histograms.
func TestMeasureMetricsPopulated(t *testing.T) {
	sys := obsSystem(t, 11)
	sys.Observe(obs.NewRegistry(sys.NumDomains()), nil)
	res := mustMeasure(t, sys, 5_000, 60_000)
	m := res.Metrics
	if m == nil {
		t.Fatal("Result.Metrics nil with a registry attached")
	}
	if m.CounterTotal(obs.CtrRowHits)+m.CounterTotal(obs.CtrRowMisses)+m.CounterTotal(obs.CtrRowConflicts) == 0 {
		t.Fatal("no row-buffer outcomes recorded")
	}
	if m.Counter(obs.CtrShaperForwarded, 1) == 0 || m.Counter(obs.CtrShaperFakes, 1) == 0 {
		t.Fatal("shaper emission counters empty for the protected domain")
	}
	if m.CounterTotal(obs.CtrRetired) == 0 {
		t.Fatal("no retirement recorded")
	}
	if m.CounterTotal(obs.CtrSchedPicks) == 0 {
		t.Fatal("no scheduling decisions recorded")
	}
	if m.CounterTotal(obs.CtrBusBusyCycles) == 0 {
		t.Fatal("no bus occupancy recorded")
	}
	for _, h := range []obs.Hist{obs.HistShaperQueue, obs.HistEgressQueue, obs.HistNodeWait} {
		if m.HistTotal(h, 1) == 0 {
			t.Errorf("histogram %v empty for the protected domain", h)
		}
	}
	if m.HistTotal(obs.HistMLP, 2) == 0 {
		t.Error("MLP histogram empty for the unprotected core")
	}
	if m.HistTotal(obs.HistQueueDepth, 0) == 0 {
		t.Error("controller queue-depth histogram empty")
	}
	// The delta must cover only the window, not warmup: per-tick samples
	// bound the observation count.
	if got := m.HistTotal(obs.HistShaperQueue, 1); got != 60_000 {
		t.Errorf("shaper occupancy samples = %d, want exactly one per window tick", got)
	}
}

// TestSlotCountersUnderFSBTA checks the secure-arbiter slot accounting
// reaches the registry (domain 0) when an FS-family scheme runs.
func TestSlotCountersUnderFSBTA(t *testing.T) {
	cfg := config.Default(2, config.FSBTA)
	sys, err := New(cfg, []CoreSpec{docdistSpec(t, true), specFor(t, "lbm", 5, false)})
	if err != nil {
		t.Fatal(err)
	}
	sys.Observe(obs.NewRegistry(sys.NumDomains()), nil)
	res := mustMeasure(t, sys, 2_000, 40_000)
	m := res.Metrics
	if m.Counter(obs.CtrSlotsSeen, 0) == 0 {
		t.Fatal("no slots seen")
	}
	if m.Counter(obs.CtrSlotsUsed, 0) == 0 {
		t.Fatal("no slots used")
	}
}

// TestEgressDepthsPopulatedOnMeasure is the regression test for the egress
// high-water accounting: the mark must be sampled before the per-tick
// drain, so a healthy DAGguise run reports the real peak staging occupancy
// (not zero) with and without a watchdog armed.
func TestEgressDepthsPopulatedOnMeasure(t *testing.T) {
	sys := obsSystem(t, 11)
	res := mustMeasure(t, sys, 2_000, 40_000)
	if res.EgressDepths == nil {
		t.Fatal("EgressDepths nil for a shaped system")
	}
	if res.EgressDepths[1] == 0 {
		t.Fatal("EgressDepths[1] = 0: high-water mark sampled after the drain")
	}
	if res.EgressMaxDepth == 0 {
		t.Fatal("EgressMaxDepth = 0")
	}

	watched := obsSystem(t, 11)
	watched.SetWatchdog(DefaultWatchdog())
	resWatched := mustMeasure(t, watched, 2_000, 40_000)
	if resWatched.EgressDepths[1] != res.EgressDepths[1] {
		t.Fatalf("runs with and without a watchdog disagree: %d vs %d",
			resWatched.EgressDepths[1], res.EgressDepths[1])
	}
}
