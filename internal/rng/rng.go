// Package rng is the simulator's checkpointable pseudo-random generator.
// Every place the simulator draws randomness at run time (shaper fake
// addresses, Camouflage interval sampling, workload trace generation, the
// audit's shuffles and resamples) holds an *rng.Rand; internal/ckpt
// serializes its two-word State and a restored simulation continues the
// identical stream.
//
// Rand is a concrete copy of math/rand's generator: the additive lagged
// Fibonacci source (607 words, tap 273) seeded the way rand.NewSource seeds
// it, and the Rand methods the repository calls, each repeating math/rand's
// algorithm step for step. The value stream of rng.New(seed) is exactly
// that of rand.New(rand.NewSource(seed)), so every golden output is
// unchanged, but each draw is a direct call the compiler can inline rather
// than two interface calls. Every method consumes a whole number of source
// steps and the generator counts them, so Restore replays the recorded
// count from the seed.
package rng

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	int63max = 1<<63 - 1
	// seedWarmup is how many Park–Miller steps seeding discards before
	// the first word; each of the rngLen words then takes three.
	seedWarmup = 20
)

// State is the serializable position of a Rand: the seed it was created
// with and the number of source draws consumed since.
type State struct {
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
}

// Rand is a checkpointable pseudo-random generator producing math/rand's
// stream for its seed. vec is math/rand's ring: each step moves feed back
// one slot and adds into it the word rngTap slots past it (math/rand keeps
// that tap as a second index). laps counts feed's wraps, which with feed
// fixes the draw count.
type Rand struct {
	feed int
	laps uint64
	vec  [rngLen]int64
	seed int64
}

// seedPow[i][k] is 48271^(seedWarmup+3i+k+1) mod 2^31−1: the power that
// turns a seed into the k-th Park–Miller word math/rand folds into word i.
// seedCooked is math/rand's table those words are XORed with.
var (
	seedPow    [rngLen][3]uint64
	seedCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for i := 0; i < seedWarmup; i++ {
		p = p * 48271 % int32max
	}
	for i := range seedPow {
		for k := range seedPow[i] {
			p = p * 48271 % int32max
			seedPow[i][k] = p
		}
	}
	// The cooked table is not exported, but the first lap of outputs of
	// rand.NewSource(1) fixes it. Each output x_n = x_{n−607} + x_{n−273}
	// is written over the slot x_{n−607} held, so after one lap every slot
	// holds the output written there; undoing the lap's additions in
	// reverse recovers the seeded vector, and XORing out seed 1's
	// Park–Miller words leaves the table.
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	feed := rngLen - rngTap
	for n := 0; n < rngLen; n++ {
		feed = (feed + rngLen - 1) % rngLen
		vec[feed] = int64(src.Uint64())
	}
	for n := 0; n < rngLen; n++ {
		vec[feed] -= vec[(feed+rngTap)%rngLen]
		feed = (feed + 1) % rngLen
	}
	// Seeding while the table is still zero leaves seed 1's Park–Miller
	// words alone.
	var pm Rand
	pm.reset(1)
	for i := range seedCooked {
		seedCooked[i] = vec[i] ^ pm.vec[i]
	}
}

// mulMod returns a·x mod 2^31−1 for a and x in [1, 2^31−2]. Since 2^31 ≡ 1,
// two folds of the high bits onto the low ones bring the product below
// 2^31; the result cannot be 0 or 2^31−1 because the modulus is prime and
// neither factor is a multiple of it.
func mulMod(a, x uint64) uint64 {
	p := a * x
	p = p&int32max + p>>31
	return p&int32max + p>>31
}

// New returns a generator producing the same stream as
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	r := new(Rand)
	r.reset(seed)
	return r
}

// reset positions r at the start of seed's stream, as rngSource.Seed does.
func (r *Rand) reset(seed int64) {
	r.seed, r.laps = seed, 0
	r.feed = rngLen - rngTap
	s := seed % int32max
	if s < 0 {
		s += int32max
	}
	if s == 0 {
		s = 89482311
	}
	// Word i XORs three consecutive Park–Miller steps into the cooked
	// word; math/rand takes the steps in sequence, here they are
	// independent products of the seed.
	x := uint64(s)
	for i := range r.vec {
		pw := &seedPow[i]
		u := int64(mulMod(pw[0], x))<<40 ^ int64(mulMod(pw[1], x))<<20 ^ int64(mulMod(pw[2], x))
		r.vec[i] = u ^ seedCooked[i]
	}
}

// Uint64 returns a pseudo-random 64-bit value: one step of the source.
func (r *Rand) Uint64() uint64 {
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
		r.laps++
	}
	tap := r.feed + rngTap
	if tap >= rngLen {
		tap -= rngLen
	}
	x := r.vec[r.feed] + r.vec[tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

// int31 and uint32 are math/rand's Int31 and Uint32: the top bits of one
// Int63.
func (r *Rand) int31() int32   { return int32(r.Int63() >> 32) }
func (r *Rand) uint32() uint32 { return uint32(r.Int63() >> 31) }

// Float64 returns a pseudo-random number in [0.0, 1.0). Like math/rand it
// divides an Int63 by 2^63 and draws again in the rare case that rounds to
// 1.0.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int63n returns a non-negative pseudo-random number in [0, n). It panics
// if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	// As in int31n: v lies past the last whole multiple of n below 2^63
	// exactly when its block of n values does not fit below 2^63.
	for {
		v := r.Int63()
		if m := v % n; v-m <= int63max-n+1 {
			return m
		}
	}
}

// int31n is math/rand's Int31n: modulo reduction of an Int31 with
// rejection of the values past the last whole multiple of n. math/rand
// rejects v > 2^31−1 − 2^31 mod n; v's block of n values [v − v%n,
// v − v%n + n) fits below 2^31 under exactly the same condition, so the
// test reuses the remainder the result needs instead of a second division.
func (r *Rand) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return r.int31() & (n - 1)
	}
	for {
		v := r.int31()
		if m := v % n; v-m <= int32max-n+1 {
			return m
		}
	}
}

// Intn returns a non-negative pseudo-random number in [0, n). It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= int32max {
		return int(r.int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// reject31n finishes a Shuffle draw whose low word is below m, the only
// case in which int31n's rejection can apply: it draws again while the low
// word is below 2^32 mod m.
func (r *Rand) reject31n(prod uint64, m uint32) uint64 {
	thresh := -m % m
	for uint32(prod) < thresh {
		prod = uint64(r.uint32()) * uint64(m)
	}
	return prod
}

// Shuffle pseudo-randomizes the order of n elements with math/rand's
// Fisher–Yates loop; swap swaps the elements with indexes i and j. It
// panics if n < 0.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("invalid argument to Shuffle")
	}
	i := n - 1
	for ; i > int32max-1; i-- {
		swap(i, int(r.Int63n(int64(i+1))))
	}
	// Each j is math/rand's unexported int31n(i+1), the multiply-shift
	// bounded draw: the high word of a Uint32 times i+1.
	for ; i > 0; i-- {
		m := uint32(i + 1)
		prod := uint64(r.uint32()) * uint64(m)
		if uint32(prod) < m {
			prod = r.reject31n(prod, m)
		}
		swap(i, int(prod>>32))
	}
}

// State returns the generator's serializable position. The draw count
// follows from feed, which starts at rngLen−rngTap and moves back one slot
// per draw, and from its wraps.
func (r *Rand) State() State {
	return State{Seed: r.seed, Draws: rngLen - rngTap + r.laps*rngLen - uint64(r.feed)}
}

// Restore rewinds or fast-forwards the generator to the given state: it
// reseeds from the state's seed and replays the recorded draws, so the next
// value drawn after Restore is exactly the value that would have followed
// State.
func (r *Rand) Restore(st State) {
	r.reset(st.Seed)
	for n := st.Draws; n > 0; n-- {
		r.Uint64()
	}
}

// FromState builds a generator positioned at the given state.
func FromState(st State) *Rand {
	r := new(Rand)
	r.Restore(st)
	return r
}

// Derive maps a base seed and a label onto a substream seed, so that
// independently named consumers (per-tenant auditors, per-shard noise
// sources) get decorrelated but individually reproducible streams. The
// mix is FNV-1a over the label folded into the seed — a pure function of
// its arguments, stable across processes and platforms.
//
// The fleet fabric leans on two properties pinned by tests:
//
//   - Distinct labels under one base seed yield distinct substream seeds
//     at campaign scale (tens of thousands of shard/tenant/shaper labels;
//     TestDeriveNoCollisionsAtShardScale). FNV-1a is not cryptographic, so
//     collisions are possible in principle — the test keeps the label
//     vocabulary the repo actually uses collision-free.
//   - A (seed, label) pair is a stable address: any worker on any machine
//     reconstructs the same substream, which is what lets a shard be
//     re-executed after a crash, or on a different worker, with identical
//     results.
//
// Labels should be fully qualified (e.g. "shaper-ch0002-dom00017", not
// "17") so that differently scoped consumers can never alias.
func Derive(seed int64, label string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return seed ^ int64(h&0x7fffffffffffffff)
}
