package audit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"dagguise/internal/rng"
	"dagguise/internal/stats"
)

// ErrCanceled is returned (wrapped) by every context-aware audit entry
// point when the context is canceled or its deadline passes mid-loop. The
// permutation and bootstrap loops are O(k·n) and dominate dagaudit runtime,
// so they poll the context once per resample.
var ErrCanceled = errors.New("audit: canceled")

// ErrInsufficientSamples is returned (wrapped) by the calibration
// primitives and Auditor.Flush when a window holds fewer than 2 samples
// for either secret class. Welch's t needs a variance estimate per class
// and a permutation null over a 1-sample class is degenerate, so instead
// of quietly producing a NaN statistic or a zero threshold that every
// later comparison misreads, starvation is a typed, matchable error —
// the verdict a long-running audit service must surface for a tenant
// whose stream dried up on one secret class.
var ErrInsufficientSamples = errors.New("audit: fewer than 2 samples in a secret class")

// ctxErr converts a context failure into a typed ErrCanceled (nil when the
// context is still live).
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return nil
}

// quantileIdx returns the index of the ceil(q·k) order statistic, clamped.
func quantileIdx(k int, q float64) int {
	idx := int(math.Ceil(q*float64(k))) - 1
	if idx < 0 {
		return 0
	}
	if idx >= k {
		return k - 1
	}
	return idx
}

// permQuantileIdx is the (1 - alpha) rejection-threshold index the
// permutation calibrations cut at.
func permQuantileIdx(k int, alpha float64) int {
	return quantileIdx(k, 1-alpha)
}

// PermutationThresholdCtx is PermutationThreshold with cancellation: it
// polls ctx once per permutation and returns a wrapped ErrCanceled the
// moment it fires. When it completes, the value and the PRNG draws consumed
// are identical to the context-free form.
func PermutationThresholdCtx(ctx context.Context, obs0, obs1 []uint64, stat Stat, k int, alpha float64, rnd *rng.Rand) (float64, error) {
	if k < 1 || (len(obs0) == 0 && len(obs1) == 0) {
		return 0, nil
	}
	if len(obs0) < 2 || len(obs1) < 2 {
		return 0, fmt.Errorf("%w: calibration got %d and %d", ErrInsufficientSamples, len(obs0), len(obs1))
	}
	pool := make([]uint64, 0, len(obs0)+len(obs1))
	pool = append(pool, obs0...)
	pool = append(pool, obs1...)
	n0 := len(obs0)
	vals := make([]float64, k)
	for i := 0; i < k; i++ {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		rnd.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		vals[i] = stat(pool[:n0], pool[n0:])
	}
	sort.Float64s(vals)
	return vals[permQuantileIdx(k, alpha)], nil
}

// SequencePermutationThresholdCtx is SequencePermutationThreshold with
// cancellation, polled once per permutation round.
func SequencePermutationThresholdCtx(ctx context.Context, seq0, seq1 [][]uint64, binWidth uint64, k int, alpha float64, rnd *rng.Rand) (float64, error) {
	n := len(seq0)
	if len(seq1) < n {
		n = len(seq1)
	}
	if n == 0 || k < 1 {
		return 0, nil
	}
	vals := make([]float64, k)
	var pool []uint64
	for i := 0; i < k; i++ {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		total := 0.0
		for p := 0; p < n; p++ {
			pool = pool[:0]
			pool = append(pool, seq0[p]...)
			pool = append(pool, seq1[p]...)
			rnd.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
			total += stats.BinaryMI(pool[:len(seq0[p])], pool[len(seq0[p]):], binWidth)
		}
		vals[i] = total / float64(n)
	}
	sort.Float64s(vals)
	return vals[permQuantileIdx(k, alpha)], nil
}

// BootstrapCICtx is BootstrapCI with cancellation, polled once per
// resample.
func BootstrapCICtx(ctx context.Context, obs0, obs1 []uint64, stat Stat, b int, confidence float64, rnd *rng.Rand) (lo, hi float64, err error) {
	if b < 1 || (len(obs0) == 0 && len(obs1) == 0) {
		return 0, 0, nil
	}
	if len(obs0) < 2 || len(obs1) < 2 {
		return 0, 0, fmt.Errorf("%w: bootstrap got %d and %d", ErrInsufficientSamples, len(obs0), len(obs1))
	}
	r0 := make([]uint64, len(obs0))
	r1 := make([]uint64, len(obs1))
	vals := make([]float64, b)
	for i := 0; i < b; i++ {
		if err := ctxErr(ctx); err != nil {
			return 0, 0, err
		}
		for j := range r0 {
			r0[j] = obs0[rnd.Intn(len(obs0))]
		}
		for j := range r1 {
			r1[j] = obs1[rnd.Intn(len(obs1))]
		}
		vals[i] = stat(r0, r1)
	}
	sort.Float64s(vals)
	tail := (1 - confidence) / 2
	return vals[quantileIdx(b, tail)], vals[quantileIdx(b, 1-tail)], nil
}
