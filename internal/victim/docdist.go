// Package victim implements the two security-sensitive applications of the
// paper's evaluation as real algorithms whose data-structure accesses are
// recorded into traces: Document Distance (DocDist) and DNA sequence
// matching. Their memory access patterns are secret-dependent — which is
// exactly the leak DAGguise exists to hide — so the recorded traces double
// as transmitters in the attack experiments.
package victim

import (
	"fmt"
	"math"
	"math/rand"

	"dagguise/internal/trace"
)

// DocDistConfig sizes the document-distance computation.
type DocDistConfig struct {
	// Vocabulary is the number of distinct words (the feature vector
	// length).
	Vocabulary int
	// EntryBytes is the size of one feature-vector entry.
	EntryBytes int
	// ComputePerWord is the instruction cost of tokenising and hashing
	// one word during the counting phase.
	ComputePerWord int
	// ComputePerEntry is the instruction cost of one distance-phase
	// element (load/convert/subtract/multiply/accumulate).
	ComputePerEntry int
	// Base is the base address of the data arrays.
	Base uint64

	// DocsPerTrace is how many private documents one recorded trace
	// processes (a document-distance service handles a stream of them).
	DocsPerTrace int
	// WordsPerDoc is the length of each private document.
	WordsPerDoc int
	// ArenaSlots is the number of input-vector buffers the service's
	// allocator rotates through. A realistic allocator does not reuse
	// the same hot buffer forever, so the distance phase streams through
	// memory rather than re-hitting the caches.
	ArenaSlots int
	// DictBuckets is the size of the word -> ID hash dictionary the
	// tokenizer probes per input word. Hot (Zipf-head) buckets stay
	// cached; tail words take random, latency-bound misses.
	DictBuckets int
}

// DefaultDocDist returns the configuration used by the evaluation: 8K-word
// vocabulary (64 KiB feature vectors) and sixteen documents per trace over
// a sixteen-slot input arena, so one trace loop touches over 1 MiB of
// input vectors and the distance phase streams past the L3 slice. The
// resulting standalone bandwidth demand sits near the saturation point of
// the paper's Figure 7 curve, and one loop is short enough that the
// default measurement windows average over all program phases.
func DefaultDocDist() DocDistConfig {
	return DocDistConfig{
		Vocabulary:      32768,
		EntryBytes:      8,
		ComputePerWord:  24,
		ComputePerEntry: 40,
		Base:            0x1000_0000,
		DocsPerTrace:    8,
		WordsPerDoc:     1500,
		ArenaSlots:      8,
		DictBuckets:     1 << 18, // 2 MiB dictionary
	}
}

// Validate checks the configuration.
func (c DocDistConfig) Validate() error {
	if c.Vocabulary <= 0 || c.EntryBytes <= 0 {
		return fmt.Errorf("victim: docdist needs positive vocabulary and entry size")
	}
	return nil
}

// DocDist runs the document-distance computation on one private input
// document against a public reference feature vector and records the
// memory trace. It returns the recorded trace and the computed distance
// (used by tests to check the algorithm is real, not a mock).
//
// The access pattern of the counting phase — which feature-vector entries
// are read and incremented, in input order — is a direct function of the
// private document (§6.1).
func DocDist(input []int, refVec []float64, cfg DocDistConfig) (*trace.Slice, float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	if len(refVec) != cfg.Vocabulary {
		return nil, 0, fmt.Errorf("victim: reference vector length %d != vocabulary %d", len(refVec), cfg.Vocabulary)
	}
	rec := trace.NewRecorder()
	inBase := cfg.Base
	refBase := cfg.Base + uint64(cfg.Vocabulary*cfg.EntryBytes)
	dist, err := docDistInto(rec, input, refVec, cfg, inBase, refBase)
	if err != nil {
		return nil, 0, err
	}
	return rec.Trace(), dist, nil
}

// docDistInto is the instrumented algorithm body: count the private
// document's word frequencies into the input vector at inBase, then
// compute the Euclidean distance against the reference vector at refBase.
func docDistInto(rec *trace.Recorder, input []int, refVec []float64, cfg DocDistConfig, inBase, refBase uint64) (float64, error) {
	// Zero the freshly allocated input vector (make([]float64, V)): a
	// sequential store sweep over the buffer.
	counts := make([]float64, cfg.Vocabulary)
	for i := 0; i < cfg.Vocabulary; i++ {
		rec.Compute(1)
		rec.Store(inBase + uint64(i*cfg.EntryBytes))
	}
	// The dictionary lives above the vector arena; its layout is part of
	// the service, not per-document.
	dictBase := cfg.Base + uint64((2+cfg.ArenaSlots)*cfg.Vocabulary*cfg.EntryBytes)
	for _, w := range input {
		if w < 0 || w >= cfg.Vocabulary {
			return 0, fmt.Errorf("victim: word id %d outside vocabulary", w)
		}
		rec.Compute(cfg.ComputePerWord)
		if cfg.DictBuckets > 0 {
			// Tokenize: hash the word and probe the dictionary bucket.
			bucket := (uint64(w) * 2654435761) % uint64(cfg.DictBuckets)
			rec.LoadDep(dictBase + bucket*8)
			rec.Compute(6)
		}
		addr := inBase + uint64(w*cfg.EntryBytes)
		rec.Load(addr)  // read counter
		rec.Store(addr) // increment
		counts[w]++
	}
	perEntry := cfg.ComputePerEntry
	if perEntry <= 0 {
		perEntry = 20
	}
	var sum float64
	for i := 0; i < cfg.Vocabulary; i++ {
		rec.Compute(perEntry)
		rec.Load(refBase + uint64(i*cfg.EntryBytes))
		rec.Load(inBase + uint64(i*cfg.EntryBytes))
		d := counts[i] - refVec[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// RandomDoc generates a document of n words drawn from a Zipf-like
// distribution over the vocabulary (natural texts are Zipfian; this
// matters because it concentrates accesses on hot counters).
func RandomDoc(seed int64, n, vocabulary int) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1.0, uint64(vocabulary-1))
	doc := make([]int, n)
	for i := range doc {
		doc[i] = int(z.Uint64())
	}
	return doc
}

// ReferenceVector builds a public reference feature vector from a
// reference document drawn with the given seed.
func ReferenceVector(seed int64, words, vocabulary int) []float64 {
	vec := make([]float64, vocabulary)
	for _, w := range RandomDoc(seed, words, vocabulary) {
		vec[w]++
	}
	return vec
}

// DocDistTrace records a document-distance *service*: it processes
// cfg.DocsPerTrace private documents derived from the secret seed, each
// counted into a fresh input-vector buffer from a rotating arena, then
// compared against the shared (cache-hot) reference vector. This is the
// trace the performance experiments loop.
func DocDistTrace(secretSeed int64, cfg DocDistConfig) (*trace.Slice, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	docs := cfg.DocsPerTrace
	if docs <= 0 {
		docs = 1
	}
	words := cfg.WordsPerDoc
	if words <= 0 {
		words = 1500
	}
	slots := cfg.ArenaSlots
	if slots <= 0 {
		slots = 1
	}
	vecBytes := uint64(cfg.Vocabulary * cfg.EntryBytes)
	refBase := cfg.Base
	arena := cfg.Base + vecBytes // arena of input vectors after the reference
	ref := ReferenceVector(1, 4*words, cfg.Vocabulary)
	rec := trace.NewRecorder()
	// docDistInto records, per document, a store per vector entry, two
	// loads per entry in the distance phase and, per word, the counter's
	// load and store after the dictionary probe.
	probe := 0
	if cfg.DictBuckets > 0 {
		probe = 1
	}
	rec.Grow(docs * (3*cfg.Vocabulary + words*(2+probe)))
	for d := 0; d < docs; d++ {
		doc := RandomDoc(secretSeed+int64(d)*257, words, cfg.Vocabulary)
		inBase := arena + uint64(d%slots)*vecBytes
		if _, err := docDistInto(rec, doc, ref, cfg, inBase, refBase); err != nil {
			return nil, err
		}
	}
	return rec.Trace(), nil
}
