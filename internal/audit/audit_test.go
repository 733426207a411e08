package audit

import (
	"bytes"
	"context"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestNilTapIsNoOp(t *testing.T) {
	var tap *Tap
	tap.Record(1, 2) // must not panic
	tap.Reset()
	if tap.Samples() != nil || tap.Len() != 0 {
		t.Fatal("nil tap should report nothing")
	}
}

func TestTapRecords(t *testing.T) {
	tap := NewTap()
	tap.Record(10, 100)
	tap.Record(20, 200)
	if tap.Len() != 2 || tap.Samples()[1] != (Sample{Cycle: 20, Value: 200}) {
		t.Fatalf("samples = %v", tap.Samples())
	}
	tap.Reset()
	if tap.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Window: 1, Alpha: 0.01, Confidence: 0.95, Permutations: 1, Bootstrap: 1},
		{Window: 10, Alpha: 0, Confidence: 0.95, Permutations: 1, Bootstrap: 1},
		{Window: 10, Alpha: 0.01, Confidence: 1, Permutations: 1, Bootstrap: 1},
		{Window: 10, Alpha: 0.01, Confidence: 0.95, Permutations: 0, Bootstrap: 1},
		{Window: 10, Alpha: 0.01, Confidence: 0.95, Permutations: 1, Bootstrap: 1, Budget: -1},
		{Window: 10, Alpha: 0.01, Confidence: 0.95, Permutations: 1, Bootstrap: 1, Stride: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestAuditorRejectsNonBinarySecret(t *testing.T) {
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Push(context.Background(), 2, Sample{}); err == nil {
		t.Fatal("secret 2 accepted")
	}
}

// pushPair feeds n paired samples; gen returns (cycle, value0, value1) for
// sample i.
func pushPair(t *testing.T, a *Auditor, n int, gen func(i int) (uint64, uint64, uint64)) {
	t.Helper()
	for i := 0; i < n; i++ {
		c, v0, v1 := gen(i)
		if err := a.Push(context.Background(), 0, Sample{Cycle: c, Value: v0}); err != nil {
			t.Fatal(err)
		}
		if err := a.Push(context.Background(), 1, Sample{Cycle: c, Value: v1}); err != nil {
			t.Fatal(err)
		}
	}
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Window = 50
	cfg.Permutations = 100
	cfg.Bootstrap = 100
	return cfg
}

func TestIdenticalTrafficStaysWithinBudget(t *testing.T) {
	// Secret-independent traffic (the DAGguise invariant): both streams
	// are bit-identical, so no detector may fire in any window.
	a, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pushPair(t, a, 200, func(i int) (uint64, uint64, uint64) {
		v := 200 + uint64(rng.Intn(40))
		return uint64(i) * 120, v, v
	})
	rep := a.Report("identical")
	if len(rep.Windows) != 4 {
		t.Fatalf("windows = %d, want 4", len(rep.Windows))
	}
	if !rep.WithinBudget || rep.FirstExceeded != -1 {
		t.Fatalf("identical traffic flagged: %+v", rep)
	}
	for _, w := range rep.Windows {
		if len(w.Detectors) != 0 || w.MI != 0 || w.T != 0 || w.KS != 0 {
			t.Fatalf("window %d not clean: %+v", w.Index, w)
		}
	}
}

func TestSameDistributionNoiseStaysWithinBudget(t *testing.T) {
	// Independent draws from the *same* distribution: the plug-in MI is
	// spuriously positive here, and an uncalibrated threshold would flag
	// it. The Miller–Madow correction plus permutation calibration must
	// keep it clean.
	a, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	pushPair(t, a, 200, func(i int) (uint64, uint64, uint64) {
		return uint64(i) * 120, 200 + uint64(rng.Intn(64)), 200 + uint64(rng.Intn(64))
	})
	rep := a.Report("null")
	if !rep.WithinBudget {
		t.Fatalf("same-distribution noise flagged as leakage: first window %d, max MI %f",
			rep.FirstExceeded, rep.MaxMI)
	}
}

func TestLeakFlagsFirstExceedingWindowAndCycle(t *testing.T) {
	// The two secrets diverge from sample 100 on (windows 0 and 1 clean,
	// window 2 leaks): the report must name window 2 and its start cycle.
	cfg := smallConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	pushPair(t, a, 200, func(i int) (uint64, uint64, uint64) {
		v0 := 200 + uint64(rng.Intn(16))
		v1 := 200 + uint64(rng.Intn(16))
		if i >= 100 {
			v1 += 120 // the secret-dependent latency shift
		}
		return uint64(i) * 120, v0, v1
	})
	rep := a.Report("leaky")
	if rep.WithinBudget {
		t.Fatal("shifted stream not flagged")
	}
	if rep.FirstExceeded != 2 {
		t.Fatalf("first exceeded window = %d, want 2", rep.FirstExceeded)
	}
	if want := uint64(100 * 120); rep.FirstExceededCycle != want {
		t.Fatalf("first exceeded cycle = %d, want %d", rep.FirstExceededCycle, want)
	}
	w := rep.Windows[2]
	if len(w.Detectors) == 0 || !w.Exceeded {
		t.Fatalf("leak window not tripped: %+v", w)
	}
	if !(w.MILo <= w.MI && w.MI <= w.MIHi) {
		t.Fatalf("CI [%f, %f] does not bracket MI %f", w.MILo, w.MIHi, w.MI)
	}
	for _, clean := range rep.Windows[:2] {
		if clean.Exceeded {
			t.Fatalf("pre-divergence window %d flagged", clean.Index)
		}
	}
}

func TestOverlappingStride(t *testing.T) {
	cfg := smallConfig()
	cfg.Stride = 25
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pushPair(t, a, 100, func(i int) (uint64, uint64, uint64) {
		return uint64(i), uint64(i % 7), uint64(i % 7)
	})
	// Starts 0 and 25 fit fully in 100 samples with window 50 and stride
	// 25 (start 50 needs samples up to 100, then 75 up to 125).
	if got := len(a.Windows()); got != 3 {
		t.Fatalf("windows = %d, want 3", got)
	}
	if a.Windows()[1].Start != 25 {
		t.Fatalf("second window starts at %d", a.Windows()[1].Start)
	}
}

func TestPushTap(t *testing.T) {
	tap0, tap1 := NewTap(), NewTap()
	for i := 0; i < 60; i++ {
		tap0.Record(uint64(i), 100)
		tap1.Record(uint64(i), 100)
	}
	cfg := smallConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PushTap(context.Background(), 0, tap0); err != nil {
		t.Fatal(err)
	}
	if err := a.PushTap(context.Background(), 1, tap1); err != nil {
		t.Fatal(err)
	}
	if len(a.Windows()) != 1 {
		t.Fatalf("windows = %d, want 1", len(a.Windows()))
	}
}

// TestReportGolden pins the exact JSON report for a fixed synthetic input:
// the audit pipeline (estimators, calibration, serialization) must be
// deterministic down to the last float, or CI artifact diffs and the
// -budget gate would be noise.
func TestReportGolden(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 42
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	pushPair(t, a, 150, func(i int) (uint64, uint64, uint64) {
		v0 := 180 + uint64(rng.Intn(32))
		v1 := 180 + uint64(rng.Intn(32))
		if i >= 50 {
			v1 += 90
		}
		return uint64(i) * 137, v0, v1
	})
	got, err := a.Report("golden").JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report drifted from golden (run with -update to accept):\n%s", got)
	}
}

func TestFormatMentionsVerdict(t *testing.T) {
	a, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	pushPair(t, a, 50, func(i int) (uint64, uint64, uint64) {
		return uint64(i), 100, 900 // maximally distinguishable
	})
	rep := a.Report("insecure")
	text := rep.Format()
	if !bytes.Contains([]byte(text), []byte("LEAK")) {
		t.Fatalf("leak verdict missing from summary:\n%s", text)
	}
	clean, _ := New(smallConfig())
	if !bytes.Contains([]byte(clean.Report("x").Format()), []byte("within budget")) {
		t.Fatal("clean verdict missing")
	}
}
