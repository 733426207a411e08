package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	got, err := Geomean([]float64{2, 8})
	if err != nil || math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %f, %v, want 4", got, err)
	}
	if g, err := Geomean(nil); err != nil || g != 0 {
		t.Fatalf("empty geomean = %f, %v, want 0", g, err)
	}
	_, err = Geomean([]float64{1, 0})
	var npe *NonPositiveError
	if !errors.As(err, &npe) {
		t.Fatalf("expected *NonPositiveError on non-positive value, got %v", err)
	}
	if npe.Index != 1 || npe.Value != 0 {
		t.Fatalf("error fields = %+v", npe)
	}
}

func TestGeomeanAtMostMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		max := 0.0
		for i, r := range raw {
			vals[i] = float64(r%1000) + 1
			if vals[i] > max {
				max = vals[i]
			}
		}
		g, err := Geomean(vals)
		return err == nil && g <= max+1e-9 && g > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean broken")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestBinaryMIPerfectlyDistinguishable(t *testing.T) {
	obs0 := []uint64{100, 100, 100}
	obs1 := []uint64{500, 500, 500}
	if mi := BinaryMI(obs0, obs1, 10); math.Abs(mi-1) > 1e-9 {
		t.Fatalf("MI = %f, want 1 bit", mi)
	}
}

func TestBinaryMIIdenticalDistributions(t *testing.T) {
	obs := []uint64{1, 2, 3, 4, 5, 6}
	if mi := BinaryMI(obs, obs, 1); mi != 0 {
		t.Fatalf("MI = %f, want 0", mi)
	}
	if BinaryMI(nil, obs, 1) != 0 {
		t.Fatal("empty observations should give 0")
	}
}

func TestBinaryMIBounds(t *testing.T) {
	f := func(a, b []uint8) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		o0 := make([]uint64, len(a))
		o1 := make([]uint64, len(b))
		for i, v := range a {
			o0[i] = uint64(v)
		}
		for i, v := range b {
			o1[i] = uint64(v)
		}
		mi := BinaryMI(o0, o1, 4)
		return mi >= 0 && mi <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceMICatchesOrderingLeak(t *testing.T) {
	// Two schedules with identical histograms but swapped order: the
	// aggregate MI is 0 but the per-position MI is 1 (Figure 2).
	seq0 := [][]uint64{{200}, {400}}
	seq1 := [][]uint64{{400}, {200}}
	all0 := append(append([]uint64{}, seq0[0]...), seq0[1]...)
	all1 := append(append([]uint64{}, seq1[0]...), seq1[1]...)
	if BinaryMI(all0, all1, 10) != 0 {
		t.Fatal("aggregate MI should be blind to ordering")
	}
	if mi := SequenceMI(seq0, seq1, 10); math.Abs(mi-1) > 1e-9 {
		t.Fatalf("sequence MI = %f, want 1", mi)
	}
	if SequenceMI(nil, nil, 1) != 0 {
		t.Fatal("empty sequence MI should be 0")
	}
}

func TestBinaryMISameDistributionNearZero(t *testing.T) {
	// Finite-sample regression for the Miller–Madow correction: two sample
	// sets drawn from the same distribution must report ≈0 bits. The
	// uncorrected plug-in estimator reports roughly (bins-1)/(2N ln 2)
	// here — about 0.07 bits at N=200 over ~20 populated bins — which
	// mislabelled secure schemes as leaky.
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{100, 200, 400} {
		draw := func() []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = 40 + uint64(rng.Intn(160))
			}
			return out
		}
		const trials = 30
		avg := 0.0
		for i := 0; i < trials; i++ {
			avg += BinaryMI(draw(), draw(), 8)
		}
		avg /= trials
		// ~20 populated bins over [40, 200) at width 8: the uncorrected
		// estimator's expected bias. Averaging across trials isolates the
		// bias from per-draw variance; the corrected average must sit well
		// below it (clamping at 0 leaves a small positive residue).
		bias := 19.0 / (2 * float64(2*n) * math.Ln2)
		if avg > bias/2 {
			t.Errorf("n=%d: same-distribution MI averages %f bits, above half the uncorrected bias %f", n, avg, bias)
		}
		if avg > 0.03 {
			t.Errorf("n=%d: same-distribution MI averages %f bits, want ~0", n, avg)
		}
	}
}

func TestBinaryMICorrectionPreservesSignal(t *testing.T) {
	// The bias correction must not erase a real difference: disjoint
	// supports still report close to 1 bit.
	rng := rand.New(rand.NewSource(8))
	obs0 := make([]uint64, 100)
	obs1 := make([]uint64, 100)
	for i := range obs0 {
		obs0[i] = 40 + uint64(rng.Intn(40))
		obs1[i] = 400 + uint64(rng.Intn(40))
	}
	if mi := BinaryMI(obs0, obs1, 8); mi < 0.9 {
		t.Fatalf("disjoint-support MI = %f, want ~1", mi)
	}
}

func TestSequenceMIMismatchedLengths(t *testing.T) {
	// Only the common prefix is compared: the extra position in seq0 must
	// not contribute (it has no counterpart under the other secret).
	seq0 := [][]uint64{{200}, {400}, {999}}
	seq1 := [][]uint64{{200}, {400}}
	if mi := SequenceMI(seq0, seq1, 10); mi != 0 {
		t.Fatalf("common-prefix MI = %f, want 0", mi)
	}
	if mi := SequenceMI(seq1, seq0, 10); mi != 0 {
		t.Fatalf("order of arguments changed the result: %f", mi)
	}
}

func TestSequenceMIEmptyPositions(t *testing.T) {
	// A position with no samples on one side carries no evidence and must
	// average in as 0, not poison the estimate.
	seq0 := [][]uint64{{}, {200}}
	seq1 := [][]uint64{{100}, {400}}
	mi := SequenceMI(seq0, seq1, 10)
	if mi != 0.5 {
		t.Fatalf("MI = %f, want 0.5 (one empty position, one fully leaking)", mi)
	}
}

func TestBinaryMIZeroBinWidth(t *testing.T) {
	// Bin width 0 means "unbinned": each distinct value is its own bin,
	// equivalent to width 1, rather than a division by zero.
	obs0 := []uint64{100, 100}
	obs1 := []uint64{101, 101}
	unbinned := BinaryMI(obs0, obs1, 0)
	if width1 := BinaryMI(obs0, obs1, 1); unbinned != width1 {
		t.Fatalf("unbinned MI %f != width-1 MI %f", unbinned, width1)
	}
	if math.Abs(unbinned-1) > 1e-9 {
		t.Fatalf("adjacent distinct values unbinned MI = %f, want 1", unbinned)
	}
	if mi := SequenceMI([][]uint64{obs0}, [][]uint64{obs1}, 0); math.Abs(mi-1) > 1e-9 {
		t.Fatalf("sequence MI with zero bin width = %f, want 1", mi)
	}
}

func TestWelchT(t *testing.T) {
	same := []uint64{10, 12, 11, 13, 10, 12}
	if got := WelchT(same, same); got != 0 {
		t.Fatalf("identical samples t = %f, want 0", got)
	}
	far := []uint64{500, 502, 501, 503, 500, 502}
	if got := WelchT(same, far); got < 100 {
		t.Fatalf("well-separated samples t = %f, want large", got)
	}
	if got := WelchT([]uint64{1}, far); got != 0 {
		t.Fatalf("undersized sample t = %f, want 0", got)
	}
	// Zero variance on both sides: 0 for equal means, the large sentinel
	// for distinct means (keeps reports finite and JSON-encodable).
	if got := WelchT([]uint64{5, 5}, []uint64{5, 5}); got != 0 {
		t.Fatalf("constant equal samples t = %f, want 0", got)
	}
	got := WelchT([]uint64{5, 5}, []uint64{9, 9})
	if math.IsInf(got, 0) || math.IsNaN(got) || got < 1e6 {
		t.Fatalf("constant distinct samples t = %f, want large finite sentinel", got)
	}
}

func TestKSDistance(t *testing.T) {
	a := []uint64{1, 2, 3, 4}
	if got := KSDistance(a, a); got != 0 {
		t.Fatalf("identical samples KS = %f, want 0", got)
	}
	disjoint := []uint64{100, 200, 300, 400}
	if got := KSDistance(a, disjoint); got != 1 {
		t.Fatalf("disjoint samples KS = %f, want 1", got)
	}
	if got := KSDistance(nil, a); got != 0 {
		t.Fatalf("empty sample KS = %f, want 0", got)
	}
	// Half the mass shifted: sup CDF distance is 0.5, and the statistic is
	// symmetric in its arguments.
	b := []uint64{1, 2, 300, 400}
	if got := KSDistance(a, b); got != 0.5 {
		t.Fatalf("half-shifted KS = %f, want 0.5", got)
	}
	if KSDistance(a, b) != KSDistance(b, a) {
		t.Fatal("KS distance not symmetric")
	}
}

func TestNormalize(t *testing.T) {
	out, err := Normalize([]float64{2, 6}, []float64{4, 3})
	if err != nil || out[0] != 0.5 || out[1] != 2 {
		t.Fatalf("normalize = %v, %v", out, err)
	}
	if _, err := Normalize([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Normalize([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero baseline accepted")
	}
}
