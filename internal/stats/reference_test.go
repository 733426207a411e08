package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceBinaryMI is BinaryMI as it was before the ranked pool: one
// count map per secret over bins v/binWidth, their populated bins merged
// through a third map and summed in ascending order. The ranked estimator
// must match it bit for bit.
func referenceBinaryMI(obs0, obs1 []uint64, binWidth uint64) float64 {
	if len(obs0) == 0 || len(obs1) == 0 {
		return 0
	}
	if binWidth == 0 {
		binWidth = 1
	}
	h0, h1 := map[uint64]uint64{}, map[uint64]uint64{}
	for _, v := range obs0 {
		h0[v/binWidth]++
	}
	for _, v := range obs1 {
		h1[v/binWidth]++
	}
	binSet := map[uint64]bool{}
	for b := range h0 {
		binSet[b] = true
	}
	for b := range h1 {
		binSet[b] = true
	}
	bins := make([]uint64, 0, len(binSet))
	for b := range binSet {
		bins = append(bins, b)
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	t0, t1 := uint64(len(obs0)), uint64(len(obs1))
	mi := 0.0
	cells := 0
	for _, b := range bins {
		p0 := float64(h0[b]) / float64(t0)
		p1 := float64(h1[b]) / float64(t1)
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
	n := float64(t0 + t1)
	mi -= float64(cells-len(bins)-1) / (2 * n * math.Ln2)
	if mi < 0 {
		mi = 0
	}
	if mi > 1 {
		mi = 1
	}
	return mi
}

// referenceKSDistance is KSDistance as it was before the ranked pool: sort
// copies of both samples and walk them until either runs out.
func referenceKSDistance(a, b []uint64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sa := append([]uint64(nil), a...)
	sb := append([]uint64(nil), b...)
	sort.Slice(sa, func(i, j int) bool { return sa[i] < sa[j] })
	sort.Slice(sb, func(i, j int) bool { return sb[i] < sb[j] })
	na, nb := float64(len(sa)), float64(len(sb))
	var i, j int
	var d float64
	for i < len(sa) && j < len(sb) {
		v := sa[i]
		if sb[j] < v {
			v = sb[j]
		}
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// fuzzBinWidths are the MI bin widths the differential fuzz targets draw
// from: unbinned, width 1 (the same bins), the audit default, and a width
// that folds almost every value near 2^64 into a few bins.
var fuzzBinWidths = [...]uint64{0, 1, 8, 1 << 40}

// fuzzSides draws two samples of 0–300 values each from seed. shape picks
// the value range: a handful of values (heavy ties), a few hundred cycles
// as probe latencies span, the top of the uint64 range, or anywhere.
func fuzzSides(seed int64, n0, n1 uint16, shape uint8) (a, b []uint64) {
	rnd := rand.New(rand.NewSource(seed))
	draw := func(n uint16) []uint64 {
		out := make([]uint64, int(n)%301)
		for i := range out {
			switch shape % 4 {
			case 0:
				out[i] = 100 + uint64(rnd.Intn(4))
			case 1:
				out[i] = 40 + uint64(rnd.Intn(400))
			case 2:
				out[i] = math.MaxUint64 - uint64(rnd.Int63n(1<<42))
			default:
				out[i] = rnd.Uint64()
			}
		}
		return out
	}
	a = draw(n0)
	b = draw(n1)
	return a, b
}

func addFuzzSeeds(f *testing.F) {
	for _, c := range []struct {
		n0, n1       uint16
		width, shape uint8
	}{
		{0, 0, 0, 0}, {0, 5, 2, 1}, {1, 1, 1, 0}, {2, 3, 2, 0}, {100, 100, 2, 1},
		{37, 52, 2, 1}, {300, 300, 0, 0}, {200, 150, 3, 2}, {64, 64, 1, 3}, {300, 1, 2, 2},
	} {
		f.Add(int64(c.n0)*7+int64(c.shape), c.n0, c.n1, c.width, c.shape)
	}
}

// FuzzBinaryMIMatchesReference checks the ranked BinaryMI against the
// map-based estimator it replaced, bit for bit.
func FuzzBinaryMIMatchesReference(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, n0, n1 uint16, width, shape uint8) {
		a, b := fuzzSides(seed, n0, n1, shape)
		w := fuzzBinWidths[int(width)%len(fuzzBinWidths)]
		got, want := BinaryMI(a, b, w), referenceBinaryMI(a, b, w)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("BinaryMI over %d and %d values, width %d: %v, reference %v", len(a), len(b), w, got, want)
		}
	})
}

// FuzzKSDistanceMatchesReference checks the ranked KSDistance against the
// sort-and-walk statistic it replaced, bit for bit.
func FuzzKSDistanceMatchesReference(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, n0, n1 uint16, _, shape uint8) {
		a, b := fuzzSides(seed, n0, n1, shape)
		got, want := KSDistance(a, b), referenceKSDistance(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("KSDistance over %d and %d values: %v, reference %v", len(a), len(b), got, want)
		}
	})
}
