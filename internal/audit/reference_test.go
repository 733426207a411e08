package audit

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"dagguise/internal/rng"
	"dagguise/internal/stats"
)

// The reference calibrations below are the loops the ranked pools
// replaced: each permutation shuffles the pooled values and re-evaluates
// the statistic on them, each bootstrap resample copies values, and the
// sequence loop rebuilds every position's pool in every round. The ranked
// forms must match them bit for bit and leave the generator at the same
// draw.

func referencePermutation(obs0, obs1 []uint64, stat Stat, k int, alpha float64, rnd *rng.Rand) float64 {
	if k < 1 || len(obs0) < 2 || len(obs1) < 2 {
		return 0
	}
	pool := append(append([]uint64{}, obs0...), obs1...)
	n0 := len(obs0)
	vals := make([]float64, k)
	for i := range vals {
		rnd.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		vals[i] = stat(pool[:n0], pool[n0:])
	}
	sort.Float64s(vals)
	return vals[permQuantileIdx(k, alpha)]
}

func referenceSequence(seq0, seq1 [][]uint64, binWidth uint64, k int, alpha float64, rnd *rng.Rand) float64 {
	n := min(len(seq0), len(seq1))
	if n == 0 || k < 1 {
		return 0
	}
	vals := make([]float64, k)
	var pool []uint64
	for i := range vals {
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
	return vals[permQuantileIdx(k, alpha)]
}

func referenceBootstrap(obs0, obs1 []uint64, stat Stat, b int, confidence float64, rnd *rng.Rand) (lo, hi float64) {
	if b < 1 || len(obs0) < 2 || len(obs1) < 2 {
		return 0, 0
	}
	r0 := make([]uint64, len(obs0))
	r1 := make([]uint64, len(obs1))
	vals := make([]float64, b)
	for i := range vals {
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
	return vals[quantileIdx(b, tail)], vals[quantileIdx(b, 1-tail)]
}

// calibrationSides draws two sides of n0 and n1 latencies around a few
// hundred cycles, with ties and, when shift is set, a leak on side 1.
func calibrationSides(seed int64, n0, n1 int, shift uint64) (a, b []uint64) {
	r := rng.New(seed)
	for i := 0; i < n0; i++ {
		a = append(a, uint64(180+r.Intn(60)))
	}
	for i := 0; i < n1; i++ {
		b = append(b, uint64(180+r.Intn(60))+shift*uint64(r.Intn(2)))
	}
	return a, b
}

// TestCalibrationMatchesReference pins every ranked calibration, and the
// generic forms on the shared loop, to the loops they replaced: equal
// float bits, and the generator left at the same draw.
func TestCalibrationMatchesReference(t *testing.T) {
	t.Run("sequence", checkSequenceCalibration)
	ctx := context.Background()
	same := func(t *testing.T, what string, got, want float64, gr, wr *rng.Rand) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v, reference %v", what, got, want)
		}
		if gr.State() != wr.State() {
			t.Errorf("%s left the generator at %+v, reference at %+v", what, gr.State(), wr.State())
		}
	}
	type sides struct{ n0, n1 int }
	for _, sz := range []sides{{2, 2}, {37, 52}, {100, 100}, {100, 3}, {250, 180}} {
		for _, k := range []int{1, 2, 7, 200, 300} {
			for _, w := range []uint64{0, 8} {
				for _, shift := range []uint64{0, 40} {
					name := fmt.Sprintf("n=%d+%d/k=%d/w=%d/shift=%d", sz.n0, sz.n1, k, w, shift)
					t.Run(name, func(t *testing.T) {
						a, b := calibrationSides(int64(sz.n0*1000+k), sz.n0, sz.n1, shift)
						mi := func(x, y []uint64) float64 { return stats.BinaryMI(x, y, w) }
						ks := func(x, y []uint64) float64 { return stats.KSDistance(x, y) }
						seed := int64(k*31 + sz.n1)

						gr, wr := rng.New(seed), rng.New(seed)
						got, err := MIPermutationThresholdCtx(ctx, a, b, w, k, 0.01, gr)
						if err != nil {
							t.Fatal(err)
						}
						same(t, "MI threshold", got, referencePermutation(a, b, mi, k, 0.01, wr), gr, wr)

						got, err = KSPermutationThresholdCtx(ctx, a, b, k, 0.05, gr)
						if err != nil {
							t.Fatal(err)
						}
						same(t, "KS threshold", got, referencePermutation(a, b, ks, k, 0.05, wr), gr, wr)

						got = PermutationThreshold(a, b, stats.WelchT, k, 0.01, gr)
						same(t, "Welch threshold", got, referencePermutation(a, b, stats.WelchT, k, 0.01, wr), gr, wr)

						lo, hi, err := MIBootstrapCICtx(ctx, a, b, w, k, 0.95, gr)
						if err != nil {
							t.Fatal(err)
						}
						wlo, whi := referenceBootstrap(a, b, mi, k, 0.95, wr)
						same(t, "MI interval low", lo, wlo, gr, wr)
						same(t, "MI interval high", hi, whi, gr, wr)

						lo, hi = BootstrapCI(a, b, stats.WelchT, k, 0.9, gr)
						wlo, whi = referenceBootstrap(a, b, stats.WelchT, k, 0.9, wr)
						same(t, "Welch interval low", lo, wlo, gr, wr)
						same(t, "Welch interval high", hi, whi, gr, wr)
					})
				}
			}
		}
	}
}

// checkSequenceCalibration pins the ranked sequence threshold to the loop
// that rebuilt each position's pool every round, over positions of unequal
// and zero size on either side.
func checkSequenceCalibration(t *testing.T) {
	r := rng.New(5)
	var seq0, seq1 [][]uint64
	for p := 0; p < 60; p++ {
		n0, n1 := r.Intn(5), r.Intn(5)
		if p%7 == 0 {
			n0, n1 = 3, 3
		}
		a, b := calibrationSides(int64(p), n0, n1, uint64(p%3)*16)
		seq0 = append(seq0, a)
		seq1 = append(seq1, b)
	}
	seq0 = append(seq0, []uint64{200, 210}) // a position seq1 lacks
	for _, k := range []int{1, 2, 7, 200, 300} {
		for _, w := range []uint64{0, 8} {
			gr, wr := rng.New(int64(k)), rng.New(int64(k))
			got := SequencePermutationThreshold(seq0, seq1, w, k, 0.01, gr)
			want := referenceSequence(seq0, seq1, w, k, 0.01, wr)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("k=%d w=%d: sequence threshold %v, reference %v", k, w, got, want)
			}
			if gr.State() != wr.State() {
				t.Errorf("k=%d w=%d: generator at %+v, reference at %+v", k, w, gr.State(), wr.State())
			}
		}
	}
}
