package rng

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// countingSource counts the steps math/rand's generator takes, the
// reference for Rand's draw count.
type countingSource struct {
	rand.Source64
	draws uint64
}

func (s *countingSource) Int63() int64   { s.draws++; return s.Source64.Int63() }
func (s *countingSource) Uint64() uint64 { s.draws++; return s.Source64.Uint64() }

// Bounds the differential tests draw from: powers of two (the masked
// paths), small odd bounds, and bounds whose rejection loops retry often,
// such as 3<<29 (a quarter of Int31s rejected), 1<<30+1 and 1<<62+1 (about
// half). Intn bounds above 2^31−1 take the Int63n path.
var (
	intnBounds  = []int{1, 2, 3, 4, 7, 977, 1 << 10, 1<<30 + 1, 3 << 29, 1<<31 - 1, 1 << 31, 1 << 40, 1<<62 + 1, math.MaxInt64}
	int63nBound = []int64{1, 2, 3, 977, 1 << 31, 1 << 40, 1<<62 + 1, 3 << 61, math.MaxInt64}
	// Shuffles of 1<<16 and 100,003 elements take int31n's rejection
	// branch for about a fifth and a half of seeds.
	shuffleSizes = []int{0, 1, 2, 3, 8, 16, 200, 977, 1 << 12, 1 << 16, 100_003}
)

// diffProgram runs the method program ops on rng.New(seed) and on
// math/rand's generator side by side and fails at the first value,
// permutation or draw count that differs. Each op is a method code byte
// followed by its argument: one byte indexing the bound tables, or eight
// raw bytes for the codes that take an arbitrary positive bound.
func diffProgram(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	got := New(seed)
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	want := rand.New(src)
	arg := func(n int) []byte {
		b := make([]byte, n)
		ops = ops[copy(b, ops):]
		return b
	}
	for step := 0; len(ops) > 0; step++ {
		code := ops[0] % 8
		ops = ops[1:]
		switch code {
		case 0:
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("step %d: Int63 %d, math/rand %d", step, g, w)
			}
		case 1:
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("step %d: Uint64 %d, math/rand %d", step, g, w)
			}
		case 2:
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("step %d: Float64 %v, math/rand %v", step, g, w)
			}
		case 3:
			n := intnBounds[int(arg(1)[0])%len(intnBounds)]
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("step %d: Intn(%d) %d, math/rand %d", step, n, g, w)
			}
		case 4:
			n := int63nBound[int(arg(1)[0])%len(int63nBound)]
			if g, w := got.Int63n(n), want.Int63n(n); g != w {
				t.Fatalf("step %d: Int63n(%d) %d, math/rand %d", step, n, g, w)
			}
		case 5:
			n := shuffleSizes[int(arg(1)[0])%len(shuffleSizes)]
			g, w := identity(n), identity(n)
			got.Shuffle(n, func(i, j int) { g[i], g[j] = g[j], g[i] })
			want.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
			if !slices.Equal(g, w) {
				t.Fatalf("step %d: Shuffle(%d) permutations differ", step, n)
			}
		case 6:
			n := int(binary.LittleEndian.Uint64(arg(8))&math.MaxInt64) | 1
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("step %d: Intn(%d) %d, math/rand %d", step, n, g, w)
			}
		case 7:
			n := int64(binary.LittleEndian.Uint64(arg(8))&math.MaxInt64) | 1
			if g, w := got.Int63n(n), want.Int63n(n); g != w {
				t.Fatalf("step %d: Int63n(%d) %d, math/rand %d", step, n, g, w)
			}
		}
		if g := got.State().Draws; g != src.draws {
			t.Fatalf("step %d (code %d): %d draws counted, math/rand took %d", step, code, g, src.draws)
		}
	}
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// FuzzMatchesStdlib drives rng.New(seed) and rand.New(rand.NewSource(seed))
// with the same fuzzed program of method calls and requires every value,
// every Shuffle permutation and every draw count to agree.
func FuzzMatchesStdlib(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 0, 4, 0, 5, 6})
	f.Add(int64(-7), []byte{3, 8, 3, 9, 3, 12, 4, 6, 4, 8, 2, 2, 2})
	f.Add(int64(int32max), []byte{5, 9, 5, 10, 1, 1})
	f.Add(int64(1<<40), []byte{6, 1, 2, 3, 4, 5, 6, 7, 0x40, 7, 9, 9, 9, 9, 9, 9, 9, 0x7f})
	f.Fuzz(diffProgram)
}

// TestShuffleRejectionMatchesStdlib pins Shuffle through int31n's rejection
// branch, which a draw count above n−1 proves was taken.
func TestShuffleRejectionMatchesStdlib(t *testing.T) {
	const n = 100_003
	rejected := 0
	for seed := int64(0); seed < 8; seed++ {
		diffProgram(t, seed, []byte{5, 10})
		r := New(seed)
		r.Shuffle(n, func(i, j int) {})
		if r.State().Draws > n-1 {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatalf("no seed took Shuffle's rejection branch for n=%d", n)
	}
}

// TestSeedsMatchStdlib compares the first two laps of the ring (1,214
// outputs) with math/rand's for the seeds its seeding treats specially:
// zero and the multiples of 2^31−1 (replaced by 89482311), negative seeds
// (reduced into range), and seeds beyond 32 bits.
func TestSeedsMatchStdlib(t *testing.T) {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, -3 * int32max, int32max << 20,
		89482311, 1 << 40, int32max + 1, math.MaxInt64, math.MinInt64,
	}
	for _, seed := range seeds {
		got, want := New(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2*rngLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d output %d: %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// TestRestoreAfterMillionDraws checks that a state saved a million draws
// into a stream restores to the same continuation, both the original
// generator's and math/rand's.
func TestRestoreAfterMillionDraws(t *testing.T) {
	const draws = 1_000_000
	orig := New(2024)
	want := rand.New(rand.NewSource(2024))
	for i := 0; i < draws; i++ {
		orig.Uint64()
		want.Uint64()
	}
	st := orig.State()
	if st.Draws != draws {
		t.Fatalf("state counts %d draws, want %d", st.Draws, draws)
	}
	restored := FromState(st)
	for i := 0; i < 3*rngLen; i++ {
		g, o, w := restored.Int63(), orig.Int63(), want.Int63()
		if g != o || g != w {
			t.Fatalf("continuation draw %d: restored %d, original %d, math/rand %d", i, g, o, w)
		}
	}
}

func BenchmarkNew(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRand = New(int64(i))
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkStd = rand.New(rand.NewSource(int64(i)))
		}
	})
}

func BenchmarkFloat64(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		r := New(1)
		var f float64
		for i := 0; i < b.N; i++ {
			f = r.Float64()
		}
		sinkFloat = f
	})
	b.Run("stdlib", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		var f float64
		for i := 0; i < b.N; i++ {
			f = r.Float64()
		}
		sinkFloat = f
	})
}

// BenchmarkShuffle shuffles 200 elements, the audit's permutation size.
func BenchmarkShuffle(b *testing.B) {
	s := identity(200)
	swap := func(i, j int) { s[i], s[j] = s[j], s[i] }
	b.Run("rng", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			r.Shuffle(len(s), swap)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r.Shuffle(len(s), swap)
		}
	})
}

var (
	sinkRand  *Rand
	sinkStd   *rand.Rand
	sinkFloat float64
)
