package rng

import (
	"testing"
	"time"
)

// TestBackoffDelayBounds pins the retry-delay contract: for any attempt
// count — including ones far past the doubling range — the jittered delay
// stays within [base/2, max], so a caller that keeps failing can never grow
// an unbounded sleep.
func TestBackoffDelayBounds(t *testing.T) {
	base := 50 * time.Millisecond
	max := 2 * time.Second
	for attempt := 0; attempt <= 200; attempt++ {
		d := BackoffDelay(base, max, 7, attempt)
		if d < base/2 {
			t.Fatalf("attempt %d: delay %v below base/2 %v", attempt, d, base/2)
		}
		if d > max {
			t.Fatalf("attempt %d: delay %v exceeds the configured cap %v", attempt, d, max)
		}
	}
	// Deep in the capped region the delay must sit in [max/2, max].
	if d := BackoffDelay(base, max, 7, 100); d < max/2 {
		t.Fatalf("capped delay %v below max/2 %v", d, max/2)
	}
}

// TestBackoffDelayDeterministicJitter pins that the jitter is a pure
// function of (seed, attempt): equal inputs give equal delays, different
// seeds decorrelate them.
func TestBackoffDelayDeterministicJitter(t *testing.T) {
	base := 80 * time.Millisecond
	max := 5 * time.Second
	for attempt := 0; attempt < 12; attempt++ {
		a := BackoffDelay(base, max, 42, attempt)
		b := BackoffDelay(base, max, 42, attempt)
		if a != b {
			t.Fatalf("attempt %d: delay not deterministic (%v vs %v)", attempt, a, b)
		}
	}
	same := 0
	for attempt := 0; attempt < 12; attempt++ {
		if BackoffDelay(base, max, 1, attempt) == BackoffDelay(base, max, 2, attempt) {
			same++
		}
	}
	if same == 12 {
		t.Fatal("different seeds produced identical jitter on every attempt")
	}
}

// TestBackoffDelayCapConfigurable checks the cap is honoured when the
// caller tightens or loosens it, and that degenerate configs fall back to
// sane defaults instead of a zero (hot-loop) delay.
func TestBackoffDelayCapConfigurable(t *testing.T) {
	if d := BackoffDelay(time.Second, 100*time.Millisecond, 3, 10); d > time.Second {
		t.Fatalf("cap below base: delay %v exceeds base", d)
	}
	if d := BackoffDelay(0, 0, 3, 4); d <= 0 {
		t.Fatalf("zero config produced non-positive delay %v", d)
	}
	tight := 30 * time.Millisecond
	for attempt := 0; attempt < 50; attempt++ {
		if d := BackoffDelay(10*time.Millisecond, tight, 9, attempt); d > tight {
			t.Fatalf("attempt %d: delay %v exceeds tightened cap %v", attempt, d, tight)
		}
	}
}
