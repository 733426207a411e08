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
// permutation and bootstrap loops are O(k·n), a window's longest stretch
// of work, so they poll the context once per resample.
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

// checkSides is the input check every calibration shares. It reports
// false with no error when there is nothing to calibrate (k < 1 or both
// sides empty), and a wrapped ErrInsufficientSamples when a side holds
// fewer than 2 samples; loop names the calibration in that error.
func checkSides(obs0, obs1 []uint64, k int, loop string) (bool, error) {
	if k < 1 || (len(obs0) == 0 && len(obs1) == 0) {
		return false, nil
	}
	if len(obs0) < 2 || len(obs1) < 2 {
		return false, fmt.Errorf("%w: %s got %d and %d", ErrInsufficientSamples, loop, len(obs0), len(obs1))
	}
	return true, nil
}

// resample is the one calibration loop: it draws k values of a resampled
// statistic, polling ctx before each draw, and returns them ascending.
func resample(ctx context.Context, k int, draw func() float64) ([]float64, error) {
	vals := make([]float64, k)
	for i := range vals {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		vals[i] = draw()
	}
	sort.Float64s(vals)
	return vals, nil
}

// permThreshold cuts the (1 - alpha) rejection threshold from k draws of
// a shuffled statistic.
func permThreshold(ctx context.Context, k int, alpha float64, draw func() float64) (float64, error) {
	vals, err := resample(ctx, k, draw)
	if err != nil {
		return 0, err
	}
	return vals[permQuantileIdx(k, alpha)], nil
}

// bootstrapCI cuts the two-sided percentile interval at the confidence
// level from b draws of a resampled statistic.
func bootstrapCI(ctx context.Context, b int, confidence float64, draw func() float64) (lo, hi float64, err error) {
	vals, err := resample(ctx, b, draw)
	if err != nil {
		return 0, 0, err
	}
	tail := (1 - confidence) / 2
	return vals[quantileIdx(b, tail)], vals[quantileIdx(b, 1-tail)], nil
}

// shuffle permutes s in place. Its draws depend only on len(s), so
// shuffling ranks or the values they rank consumes the same stream and
// moves the same positions.
func shuffle[T any](s []T, rnd *rng.Rand) {
	rnd.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
}

// shuffled returns a draw that shuffles pool in place and evaluates stat
// on its first n0 entries against the rest.
func shuffled[T any](pool []T, n0 int, stat func(a, b []T) float64, rnd *rng.Rand) func() float64 {
	return func() float64 {
		shuffle(pool, rnd)
		return stat(pool[:n0], pool[n0:])
	}
}

// PermutationThresholdCtx is PermutationThreshold with cancellation: it
// polls ctx once per permutation and returns a wrapped ErrCanceled the
// moment it fires. When it completes, the value and the PRNG draws consumed
// are identical to the context-free form.
func PermutationThresholdCtx(ctx context.Context, obs0, obs1 []uint64, stat Stat, k int, alpha float64, rnd *rng.Rand) (float64, error) {
	if ok, err := checkSides(obs0, obs1, k, "calibration"); !ok {
		return 0, err
	}
	pool := make([]uint64, 0, len(obs0)+len(obs1))
	pool = append(pool, obs0...)
	pool = append(pool, obs1...)
	return permThreshold(ctx, k, alpha, shuffled(pool, len(obs0), stat, rnd))
}

// MIPermutationThresholdCtx is PermutationThresholdCtx for
// stats.BinaryMI at the given bin width, on the ranked pool: it ranks the
// pooled samples once and each permutation shuffles the ranks and counts
// the two halves. Value, errors and PRNG draws are those of the generic
// form with a BinaryMI closure.
func MIPermutationThresholdCtx(ctx context.Context, obs0, obs1 []uint64, binWidth uint64, k int, alpha float64, rnd *rng.Rand) (float64, error) {
	if ok, err := checkSides(obs0, obs1, k, "calibration"); !ok {
		return 0, err
	}
	p := stats.RankBins(obs0, obs1, binWidth)
	return permThreshold(ctx, k, alpha, shuffled(p.Ranks, p.N0, p.MI, rnd))
}

// KSPermutationThresholdCtx is PermutationThresholdCtx for
// stats.KSDistance on the ranked pool, as MIPermutationThresholdCtx is for
// BinaryMI.
func KSPermutationThresholdCtx(ctx context.Context, obs0, obs1 []uint64, k int, alpha float64, rnd *rng.Rand) (float64, error) {
	if ok, err := checkSides(obs0, obs1, k, "calibration"); !ok {
		return 0, err
	}
	p := stats.RankBins(obs0, obs1, 0)
	return permThreshold(ctx, k, alpha, shuffled(p.Ranks, p.N0, p.KS, rnd))
}

// SequencePermutationThresholdCtx is SequencePermutationThreshold with
// cancellation, polled once per permutation round. Each position is ranked
// once; every round restarts each position from its unshuffled order
// (seq0[p] then seq1[p]) before shuffling it.
func SequencePermutationThresholdCtx(ctx context.Context, seq0, seq1 [][]uint64, binWidth uint64, k int, alpha float64, rnd *rng.Rand) (float64, error) {
	n := len(seq0)
	if len(seq1) < n {
		n = len(seq1)
	}
	if n == 0 || k < 1 {
		return 0, nil
	}
	pools := make([]*stats.Pool, n)
	longest := 0
	for p := range pools {
		pools[p] = stats.RankBins(seq0[p], seq1[p], binWidth)
		longest = max(longest, len(pools[p].Ranks))
	}
	scratch := make([]int32, longest)
	return permThreshold(ctx, k, alpha, func() float64 {
		total := 0.0
		for _, pool := range pools {
			ranks := scratch[:copy(scratch, pool.Ranks)]
			shuffle(ranks, rnd)
			total += pool.MI(ranks[:pool.N0], ranks[pool.N0:])
		}
		return total / float64(n)
	})
}

// BootstrapCICtx is BootstrapCI with cancellation, polled once per
// resample.
func BootstrapCICtx(ctx context.Context, obs0, obs1 []uint64, stat Stat, b int, confidence float64, rnd *rng.Rand) (lo, hi float64, err error) {
	if ok, err := checkSides(obs0, obs1, b, "bootstrap"); !ok {
		return 0, 0, err
	}
	r0 := make([]uint64, len(obs0))
	r1 := make([]uint64, len(obs1))
	return bootstrapCI(ctx, b, confidence, func() float64 {
		for j := range r0 {
			r0[j] = obs0[rnd.Intn(len(obs0))]
		}
		for j := range r1 {
			r1[j] = obs1[rnd.Intn(len(obs1))]
		}
		return stat(r0, r1)
	})
}

// MIBootstrapCICtx is BootstrapCICtx for stats.BinaryMI at the given bin
// width, on the ranked pool: each resample draws ranks, with the same
// rnd.Intn calls in the same order as the generic form, and counts them.
func MIBootstrapCICtx(ctx context.Context, obs0, obs1 []uint64, binWidth uint64, b int, confidence float64, rnd *rng.Rand) (lo, hi float64, err error) {
	if ok, err := checkSides(obs0, obs1, b, "bootstrap"); !ok {
		return 0, 0, err
	}
	p := stats.RankBins(obs0, obs1, binWidth)
	ranks0, ranks1 := p.Ranks[:p.N0], p.Ranks[p.N0:]
	r0 := make([]int32, len(ranks0))
	r1 := make([]int32, len(ranks1))
	return bootstrapCI(ctx, b, confidence, func() float64 {
		for j := range r0 {
			r0[j] = ranks0[rnd.Intn(len(ranks0))]
		}
		for j := range r1 {
			r1[j] = ranks1[rnd.Intn(len(ranks1))]
		}
		return p.MI(r0, r1)
	})
}
