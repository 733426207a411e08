// Package stats provides the measurement utilities used across the
// evaluation: aggregate means, and the two-sample leakage statistics —
// the mutual-information estimator that quantifies side-channel leakage
// for the Table 1 security comparison, Welch's t and the
// Kolmogorov–Smirnov distance.
package stats

import (
	"fmt"
	"math"
	"slices"
)

// NonPositiveError reports a Geomean input outside its domain: the
// geometric mean is only defined over positive values.
type NonPositiveError struct {
	// Index is the offending position, Value the offending input.
	Index int
	Value float64
}

// Error implements error.
func (e *NonPositiveError) Error() string {
	return fmt.Sprintf("stats: geomean of non-positive value %f at index %d", e.Value, e.Index)
}

// Geomean returns the geometric mean of positive values (the aggregate the
// paper uses for normalized IPC). It returns 0 for an empty slice and a
// *NonPositiveError when any input is outside the function's domain.
func Geomean(vals []float64) (float64, error) {
	if len(vals) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i, v := range vals {
		if v <= 0 {
			return 0, &NonPositiveError{Index: i, Value: v}
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals))), nil
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// BinaryMI estimates the mutual information, in bits, between a uniform
// binary secret and an observation, from samples of the observation under
// each secret value. This is the leakage metric of the security
// comparison: a perfectly protected channel gives 0 bits; 1 bit means the
// observation fully determines the secret.
//
// The plug-in estimator is positively biased on finite samples — two
// sample sets drawn from the *same* distribution report spuriously
// positive MI of roughly (bins-1)/(2N ln 2) bits — so the estimate is
// Miller–Madow corrected: the entropy-bias terms of the marginal and
// joint histograms cancel against each other, leaving the correction
// (cells - bins - 1)/(2N ln 2) where cells counts the populated
// (secret, bin) pairs. The result is clamped to [0, 1] (the entropy of a
// binary secret bounds it from above; the correction can overshoot on
// either side for tiny N).
func BinaryMI(obs0, obs1 []uint64, binWidth uint64) float64 {
	if len(obs0) == 0 || len(obs1) == 0 {
		return 0
	}
	p := RankBins(obs0, obs1, binWidth)
	return p.MI(p.Ranks[:p.N0], p.Ranks[p.N0:])
}

// Pool is two samples pooled and ranked once, the input of the counting
// kernel behind BinaryMI and KSDistance. As RankBins returns it, Ranks[:N0]
// belong to the first sample and Ranks[N0:] to the second; each is the
// dense ascending rank of that observation's key among the pool's distinct
// keys. A label shuffle (which may permute Ranks in place) or a resample
// of the pool is a rearrangement of ranks, and MI and KS evaluate any such
// pair of sides with one counting pass: no map, no sort and no allocation.
//
// The sides passed to MI and KS must hold ranks taken from this pool's
// Ranks; a rank at or above the pool's distinct-key count panics. MI and
// KS count into scratch the pool owns, so a Pool is not safe for
// concurrent use.
type Pool struct {
	Ranks []int32
	N0    int
	// c0 and c1 are per-rank counting scratch, one slot per distinct key.
	c0, c1 []int32
}

// RankBins pools obs0 and obs1 keyed by their bin v/binWidth (0 is
// unbinned: each distinct value is its own bin, the key KS ranks by) and
// ranks each key by binary search in the sorted distinct keys.
func RankBins(obs0, obs1 []uint64, binWidth uint64) *Pool {
	keys := make([]uint64, 0, len(obs0)+len(obs1))
	keys = append(keys, obs0...)
	keys = append(keys, obs1...)
	if binWidth > 1 {
		for i := range keys {
			keys[i] /= binWidth
		}
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	ranks := make([]int32, len(keys))
	for i, k := range keys {
		r, _ := slices.BinarySearch(sorted, k)
		ranks[i] = int32(r)
	}
	d := len(sorted)
	counts := make([]int32, 2*d)
	return &Pool{Ranks: ranks, N0: len(obs0), c0: counts[:d], c1: counts[d:]}
}

// count tallies each side's ranks into the pool's scratch.
func (p *Pool) count(side0, side1 []int32) {
	clear(p.c0)
	clear(p.c1)
	for _, r := range side0 {
		p.c0[r]++
	}
	for _, r := range side1 {
		p.c1[r]++
	}
}

// MI is BinaryMI of two sides drawn from the pool's ranks, which it reads
// as bins. Bins are summed in ascending order, skipping those empty on
// both sides, so the floating-point summation order — and therefore the
// estimate's last ulp — is fixed (the audit layer golden-tests reports
// built from these values).
func (p *Pool) MI(side0, side1 []int32) float64 {
	if len(side0) == 0 || len(side1) == 0 {
		return 0
	}
	p.count(side0, side1)
	n0, n1 := float64(len(side0)), float64(len(side1))
	mi := 0.0
	cells, bins := 0, 0
	for r, c0 := range p.c0 {
		c1 := p.c1[r]
		if c0 == 0 && c1 == 0 {
			continue
		}
		bins++
		p0 := float64(c0) / n0
		p1 := float64(c1) / n1
		pb := (p0 + p1) / 2
		if p0 > 0 {
			mi += 0.5 * p0 * math.Log2(p0/pb)
			cells++
		}
		if p1 > 0 {
			mi += 0.5 * p1 * math.Log2(p1/pb)
			cells++
		}
	}
	n := float64(len(side0) + len(side1))
	mi -= float64(cells-bins-1) / (2 * n * math.Ln2)
	if mi < 0 {
		mi = 0
	}
	if mi > 1 {
		mi = 1
	}
	return mi
}

// KS is KSDistance of two sides drawn from the pool's ranks: the largest
// |i/na - j/nb| over the cumulative counts of ascending ranks. Once one
// side is exhausted the gap can only shrink, so walking every rank gives
// the same maximum as stopping there.
func (p *Pool) KS(side0, side1 []int32) float64 {
	if len(side0) == 0 || len(side1) == 0 {
		return 0
	}
	p.count(side0, side1)
	na, nb := float64(len(side0)), float64(len(side1))
	var i, j int
	var d float64
	for r, c0 := range p.c0 {
		i += int(c0)
		j += int(p.c1[r])
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// degenerateT is the value WelchT reports when both samples have zero
// variance but different means: the statistic is infinite in the limit, and
// a large finite sentinel keeps reports JSON-encodable and comparable.
const degenerateT = 1e12

// WelchT returns the absolute Welch's t statistic between two samples —
// the TVLA-style first-order leakage detector. It needs at least two
// samples on each side (returns 0 otherwise); when both samples are
// constant it returns 0 for equal means and a large sentinel value for
// distinct means.
func WelchT(a, b []uint64) float64 {
	if len(a) < 2 || len(b) < 2 {
		return 0
	}
	meanVar := func(xs []uint64) (m, v float64) {
		for _, x := range xs {
			m += float64(x)
		}
		m /= float64(len(xs))
		for _, x := range xs {
			d := float64(x) - m
			v += d * d
		}
		v /= float64(len(xs) - 1)
		return m, v
	}
	m0, v0 := meanVar(a)
	m1, v1 := meanVar(b)
	se := v0/float64(len(a)) + v1/float64(len(b))
	if se == 0 {
		if m0 == m1 {
			return 0
		}
		return degenerateT
	}
	return math.Abs(m0-m1) / math.Sqrt(se)
}

// KSDistance returns the two-sample Kolmogorov–Smirnov statistic: the
// supremum distance between the empirical CDFs of a and b, in [0, 1]. It
// is distribution-free — sensitive to any difference in shape, not just the
// mean shift WelchT detects — and returns 0 when either sample is empty.
func KSDistance(a, b []uint64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	p := RankBins(a, b, 0)
	return p.KS(p.Ranks[:p.N0], p.Ranks[p.N0:])
}

// SequenceMI estimates per-position mutual information between the secret
// and a *sequence* of observations by averaging BinaryMI across positions.
// It captures ordering leaks (Figure 2) that aggregate histograms hide.
func SequenceMI(seq0, seq1 [][]uint64, binWidth uint64) float64 {
	n := len(seq0)
	if len(seq1) < n {
		n = len(seq1)
	}
	if n == 0 {
		return 0
	}
	// seq0[i] and seq1[i] are samples of observation position i under
	// secrets 0 and 1.
	total := 0.0
	for i := 0; i < n; i++ {
		total += BinaryMI(seq0[i], seq1[i], binWidth)
	}
	return total / float64(n)
}

// Normalize divides each value by the matching baseline value.
func Normalize(values, baseline []float64) ([]float64, error) {
	if len(values) != len(baseline) {
		return nil, fmt.Errorf("stats: normalize length mismatch %d vs %d", len(values), len(baseline))
	}
	out := make([]float64, len(values))
	for i := range values {
		if baseline[i] == 0 {
			return nil, fmt.Errorf("stats: zero baseline at index %d", i)
		}
		out[i] = values[i] / baseline[i]
	}
	return out, nil
}
