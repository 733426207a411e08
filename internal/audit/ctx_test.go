package audit

import (
	"context"
	"errors"
	"testing"

	"dagguise/internal/rng"
	"dagguise/internal/stats"
)

func synthStreams(seed int64, n int) (a, b []uint64) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		a = append(a, uint64(100+r.Intn(40)))
		b = append(b, uint64(100+r.Intn(40)))
	}
	return a, b
}

func TestCtxVariantsMatchPlainForms(t *testing.T) {
	a, b := synthStreams(7, 200)

	plain := PermutationThreshold(a, b, stats.WelchT, 100, 0.05, rng.New(11))
	got, err := PermutationThresholdCtx(context.Background(), a, b, stats.WelchT, 100, 0.05, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if got != plain {
		t.Fatalf("PermutationThresholdCtx %v != PermutationThreshold %v", got, plain)
	}

	lo, hi := BootstrapCI(a, b, stats.WelchT, 100, 0.95, rng.New(13))
	glo, ghi, err := BootstrapCICtx(context.Background(), a, b, stats.WelchT, 100, 0.95, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if glo != lo || ghi != hi {
		t.Fatalf("BootstrapCICtx (%v,%v) != BootstrapCI (%v,%v)", glo, ghi, lo, hi)
	}

	seq0 := [][]uint64{a[:50], a[50:100]}
	seq1 := [][]uint64{b[:50], b[50:100]}
	sp := SequencePermutationThreshold(seq0, seq1, 8, 50, 0.05, rng.New(17))
	gsp, err := SequencePermutationThresholdCtx(context.Background(), seq0, seq1, 8, 50, 0.05, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if gsp != sp {
		t.Fatalf("SequencePermutationThresholdCtx %v != plain %v", gsp, sp)
	}
}

func TestCtxVariantsReturnTypedErrCanceled(t *testing.T) {
	a, b := synthStreams(7, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := PermutationThresholdCtx(ctx, a, b, stats.WelchT, 100, 0.05, rng.New(1)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("PermutationThresholdCtx: got %v, want ErrCanceled", err)
	}
	if _, _, err := BootstrapCICtx(ctx, a, b, stats.WelchT, 100, 0.95, rng.New(1)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("BootstrapCICtx: got %v, want ErrCanceled", err)
	}
	seq0 := [][]uint64{a[:50]}
	seq1 := [][]uint64{b[:50]}
	if _, err := SequencePermutationThresholdCtx(ctx, seq0, seq1, 8, 50, 0.05, rng.New(1)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("SequencePermutationThresholdCtx: got %v, want ErrCanceled", err)
	}
	if _, err := MIPermutationThresholdCtx(ctx, a, b, 8, 100, 0.05, rng.New(1)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("MIPermutationThresholdCtx: got %v, want ErrCanceled", err)
	}
	if _, err := KSPermutationThresholdCtx(ctx, a, b, 100, 0.05, rng.New(1)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("KSPermutationThresholdCtx: got %v, want ErrCanceled", err)
	}
	if _, _, err := MIBootstrapCICtx(ctx, a, b, 8, 100, 0.95, rng.New(1)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("MIBootstrapCICtx: got %v, want ErrCanceled", err)
	}
}

// TestRankedFormsRejectStarvedSides checks that the ranked MI and KS
// calibrations share the generic forms' input check: a side of one
// sample is ErrInsufficientSamples, and nothing to calibrate is 0.
func TestRankedFormsRejectStarvedSides(t *testing.T) {
	ctx := context.Background()
	one, many := []uint64{5}, []uint64{5, 6, 7}
	if _, err := MIPermutationThresholdCtx(ctx, one, many, 8, 10, 0.05, rng.New(1)); !errors.Is(err, ErrInsufficientSamples) {
		t.Errorf("MIPermutationThresholdCtx: got %v, want ErrInsufficientSamples", err)
	}
	if _, err := KSPermutationThresholdCtx(ctx, many, one, 10, 0.05, rng.New(1)); !errors.Is(err, ErrInsufficientSamples) {
		t.Errorf("KSPermutationThresholdCtx: got %v, want ErrInsufficientSamples", err)
	}
	if _, _, err := MIBootstrapCICtx(ctx, one, many, 8, 10, 0.95, rng.New(1)); !errors.Is(err, ErrInsufficientSamples) {
		t.Errorf("MIBootstrapCICtx: got %v, want ErrInsufficientSamples", err)
	}
	r := rng.New(1)
	if v, err := MIPermutationThresholdCtx(ctx, nil, nil, 8, 10, 0.05, r); v != 0 || err != nil {
		t.Errorf("empty MI calibration = %v, %v; want 0, nil", v, err)
	}
	if v, err := KSPermutationThresholdCtx(ctx, many, many, 0, 0.05, r); v != 0 || err != nil {
		t.Errorf("zero-permutation KS calibration = %v, %v; want 0, nil", v, err)
	}
	if r.State().Draws != 0 {
		t.Errorf("calibrations with nothing to do drew %d values", r.State().Draws)
	}
}

func TestAuditorPushHonoursCancel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 10
	au, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	a, b := synthStreams(3, 20)
	for i := 0; i < 9; i++ {
		if err := au.Push(ctx, 0, Sample{Cycle: uint64(i), Value: a[i]}); err != nil {
			t.Fatal(err)
		}
		if err := au.Push(ctx, 1, Sample{Cycle: uint64(i), Value: b[i]}); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	// The push completing the first window must abandon calibration with a
	// typed error and leave the window unprocessed...
	if err := au.Push(ctx, 0, Sample{Cycle: 9, Value: a[9]}); err != nil {
		t.Fatal(err) // stream 1 not full yet, no window triggered
	}
	if err := au.Push(ctx, 1, Sample{Cycle: 9, Value: b[9]}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if len(au.Windows()) != 0 {
		t.Fatal("canceled push still audited a window")
	}
	// ...and a later push under a live context resumes it.
	if err := au.Push(context.Background(), 0, Sample{Cycle: 10, Value: a[10]}); err != nil {
		t.Fatal(err)
	}
	if len(au.Windows()) != 1 {
		t.Fatalf("pending window not resumed: %d windows", len(au.Windows()))
	}
}

func TestTapSaveRestore(t *testing.T) {
	tap := NewTap()
	tap.Record(10, 100)
	tap.Record(20, 200)
	saved := tap.SaveState()
	tap.Record(30, 300)
	tap.RestoreState(saved)
	if tap.Len() != 2 || tap.Samples()[1] != (Sample{Cycle: 20, Value: 200}) {
		t.Fatalf("restore mismatch: %+v", tap.Samples())
	}
	var nilTap *Tap
	if nilTap.SaveState() != nil {
		t.Fatal("nil tap saved samples")
	}
	nilTap.RestoreState(saved) // must not panic
}
