package audit

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	crng "dagguise/internal/rng"
)

// streamCfg is a small, fast configuration for the streaming tests.
func streamCfg() Config {
	cfg := DefaultConfig()
	cfg.Window = 20
	cfg.Permutations = 40
	cfg.Bootstrap = 40
	return cfg
}

// feed pushes n paired samples drawn from the given per-class offsets.
func feed(t *testing.T, a *Auditor, n int, seed int64, off0, off1 uint64) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := uint64(i * 10)
		if err := a.Push(context.Background(), 0, Sample{Cycle: c, Value: off0 + uint64(rnd.Intn(16))}); err != nil {
			t.Fatal(err)
		}
		if err := a.Push(context.Background(), 1, Sample{Cycle: c + 5, Value: off1 + uint64(rnd.Intn(16))}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactPreservesReports pins the bounded-memory contract: a
// periodically compacted auditor produces window reports byte-identical to
// an uncompacted one over the same stream.
func TestCompactPreservesReports(t *testing.T) {
	plain, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 137; i++ {
		s0 := Sample{Cycle: uint64(i * 10), Value: 100 + uint64(rnd.Intn(16))}
		s1 := Sample{Cycle: uint64(i*10 + 5), Value: 100 + uint64(rnd.Intn(16))}
		for _, a := range []*Auditor{plain, compacted} {
			if err := a.Push(context.Background(), 0, s0); err != nil {
				t.Fatal(err)
			}
			if err := a.Push(context.Background(), 1, s1); err != nil {
				t.Fatal(err)
			}
		}
		if i%11 == 0 {
			compacted.Compact()
		}
	}
	compacted.Compact()
	if n := len(compacted.streams[0]); n >= 40 {
		t.Fatalf("compaction left %d samples pending, want O(window)", n)
	}
	ra, _ := plain.Report("x").JSON()
	rb, _ := compacted.Report("x").JSON()
	if string(ra) != string(rb) {
		t.Fatalf("compacted report diverged:\n%s\nvs\n%s", ra, rb)
	}
}

// TestAuditorStateRoundTrip pins crash recovery: save mid-stream (through
// JSON, as a checkpoint would), restore, finish the stream, and require
// the report byte-identical to an uninterrupted run.
func TestAuditorStateRoundTrip(t *testing.T) {
	ref, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ref, 105, 3, 100, 160)

	first, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, first, 53, 3, 100, 160)
	first.Compact() // recovery must also survive a compacted save
	blob, err := json.Marshal(first.SaveState())
	if err != nil {
		t.Fatal(err)
	}
	var st AuditorState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	resumed, err := RestoreAuditor(&st)
	if err != nil {
		t.Fatal(err)
	}
	// Continue the identical tail: replay the full deterministic stream
	// generator and skip what the first half already consumed.
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 105; i++ {
		s0 := Sample{Cycle: uint64(i * 10), Value: 100 + uint64(rnd.Intn(16))}
		s1 := Sample{Cycle: uint64(i*10 + 5), Value: 160 + uint64(rnd.Intn(16))}
		if i < 53 {
			continue
		}
		if err := resumed.Push(context.Background(), 0, s0); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Push(context.Background(), 1, s1); err != nil {
			t.Fatal(err)
		}
	}
	ra, _ := ref.Report("x").JSON()
	rb, _ := resumed.Report("x").JSON()
	if string(ra) != string(rb) {
		t.Fatalf("resumed report diverged:\n%s\nvs\n%s", ra, rb)
	}
}

func TestRestoreAuditorRejectsCorruptState(t *testing.T) {
	if _, err := RestoreAuditor(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	bad := &AuditorState{Config: streamCfg(), Base: 10, Next: 3}
	if _, err := RestoreAuditor(bad); err == nil {
		t.Fatal("next < base accepted")
	}
	badCfg := &AuditorState{Config: Config{Window: 1}}
	if _, err := RestoreAuditor(badCfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestFlushStarvedStream is the regression test for the typed calibration
// error: a tenant whose class-1 stream dried up must surface
// ErrInsufficientSamples, not a NaN statistic or a zero threshold.
func TestFlushStarvedStream(t *testing.T) {
	a, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Class 0 keeps producing; class 1 delivered a single sample.
	for i := 0; i < 9; i++ {
		if err := a.Push(context.Background(), 0, Sample{Cycle: uint64(i), Value: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Push(context.Background(), 1, Sample{Cycle: 0, Value: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Flush(context.Background()); !errors.Is(err, ErrInsufficientSamples) {
		t.Fatalf("starved flush returned %v, want ErrInsufficientSamples", err)
	}
	// The calibration primitives themselves carry the same typed error.
	ctx := context.Background()
	if _, err := PermutationThresholdCtx(ctx, []uint64{1, 2, 3}, []uint64{4}, mi8, 10, 0.05, crng.New(99)); !errors.Is(err, ErrInsufficientSamples) {
		t.Fatalf("PermutationThresholdCtx returned %v, want ErrInsufficientSamples", err)
	}
	if _, _, err := BootstrapCICtx(ctx, []uint64{1}, []uint64{2, 3}, mi8, 10, 0.95, crng.New(99)); !errors.Is(err, ErrInsufficientSamples) {
		t.Fatalf("BootstrapCICtx returned %v, want ErrInsufficientSamples", err)
	}
}

// TestFlushPartialWindow checks the end-of-stream audit: a leaky remnant
// shorter than a full window still produces a calibrated report, and a
// second flush is a no-op.
func TestFlushPartialWindow(t *testing.T) {
	a, err := New(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, a, 29, 5, 100, 400) // one full window + 9 pending pairs
	if got := a.Audited(); got != 1 {
		t.Fatalf("audited %d full windows, want 1", got)
	}
	rep, err := a.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Index != 1 {
		t.Fatalf("flush produced %+v, want window index 1", rep)
	}
	if !rep.Exceeded {
		t.Fatal("grossly leaky partial window not flagged")
	}
	if rep2, err := a.Flush(context.Background()); err != nil || rep2 != nil {
		t.Fatalf("second flush = (%v, %v), want no-op", rep2, err)
	}
}
