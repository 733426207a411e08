package victim

import (
	"fmt"

	"dagguise/internal/rng"
	"dagguise/internal/trace"
)

// DNAConfig sizes the DNA sequence-matching computation (modelled on
// mrsFAST-style k-mer hash-table alignment).
type DNAConfig struct {
	// K is the k-mer (substring) length.
	K int
	// Buckets is the hash-table bucket count (power of two).
	Buckets int
	// NodeBytes is the size of one chain node (k-mer + position + next).
	NodeBytes int
	// ComputePerKmer is the instruction cost of extracting and hashing
	// one k-mer of the private sequence.
	ComputePerKmer int
	// Base is the base address of the hash table.
	Base uint64
}

// DefaultDNA returns the configuration used by the evaluation: a 64K
// bucket table over a long public sequence, several MiB of chain nodes.
func DefaultDNA() DNAConfig {
	return DNAConfig{K: 20, Buckets: 1 << 16, NodeBytes: 64, ComputePerKmer: 40, Base: 0x4000_0000}
}

// Validate checks the configuration.
func (c DNAConfig) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("victim: dna k must be positive")
	}
	if c.Buckets <= 0 || c.Buckets&(c.Buckets-1) != 0 {
		return fmt.Errorf("victim: dna buckets must be a positive power of two, got %d", c.Buckets)
	}
	if c.NodeBytes <= 0 {
		return fmt.Errorf("victim: dna node size must be positive")
	}
	return nil
}

// dnaIndex is the public-sequence k-mer hash table.
type dnaIndex struct {
	cfg      DNAConfig
	buckets  [][]indexNode // per-bucket chains
	nodeBase uint64
	nodeOff  [][]int // flat node index per bucket position
}

type indexNode struct {
	kmer string
	pos  int
}

// BuildIndex splits the public sequence into overlapping k-mers and stores
// them in a chained hash table, mirroring the alignment tool's
// preprocessing. The index layout (bucket array + node arena) defines the
// addresses the private-sequence probes will touch.
func BuildIndex(public string, cfg DNAConfig) (*dnaIndex, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(public) < cfg.K {
		return nil, fmt.Errorf("victim: public sequence shorter than k")
	}
	idx := &dnaIndex{
		cfg:      cfg,
		buckets:  make([][]indexNode, cfg.Buckets),
		nodeBase: cfg.Base + uint64(cfg.Buckets*8),
	}
	for i := 0; i+cfg.K <= len(public); i += cfg.K {
		kmer := public[i : i+cfg.K]
		h := fnv1a(kmer) & uint64(cfg.Buckets-1)
		idx.buckets[h] = append(idx.buckets[h], indexNode{kmer: kmer, pos: i})
	}
	// Assign flat node arena offsets (chains are contiguous per bucket,
	// as an alignment tool would lay them out after build).
	idx.nodeOff = make([][]int, cfg.Buckets)
	next := 0
	for b, chain := range idx.buckets {
		offs := make([]int, len(chain))
		for i := range chain {
			offs[i] = next
			next++
		}
		idx.nodeOff[b] = offs
	}
	return idx, nil
}

// fnv1a hashes a string with FNV-1a.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Align matches every k-mer of the private sequence against the index,
// recording the memory trace of the probes: one load of the bucket head,
// then a dependent load per chain node (pointer chasing). The number of
// matches is returned so tests can confirm real computation. The sequence
// of buckets probed — and the chain lengths walked — is a direct function
// of the private sequence.
func (idx *dnaIndex) Align(private string) (*trace.Slice, int, error) {
	cfg := idx.cfg
	if len(private) < cfg.K {
		return nil, 0, fmt.Errorf("victim: private sequence shorter than k")
	}
	rec := trace.NewRecorder()
	matches := 0
	for i := 0; i+cfg.K <= len(private); i++ {
		kmer := private[i : i+cfg.K]
		rec.Compute(cfg.ComputePerKmer)
		h := fnv1a(kmer) & uint64(cfg.Buckets-1)
		rec.Load(cfg.Base + h*8) // bucket head pointer
		for j, node := range idx.buckets[h] {
			rec.LoadDep(idx.nodeBase + uint64(idx.nodeOff[h][j]*cfg.NodeBytes))
			rec.Compute(cfg.K / 4) // k-mer comparison
			if node.kmer == kmer {
				matches++
			}
		}
	}
	return rec.Trace(), matches, nil
}

const dnaAlphabet = "ACGT"

// RandomDNA generates a random DNA sequence of length n.
func RandomDNA(seed int64, n int) string {
	rnd := rng.New(seed)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = dnaAlphabet[rnd.Intn(4)]
	}
	return string(buf)
}

// MutatedDNA copies base and mutates each position with the given rate,
// producing a private sequence that partially matches the public one (as
// real reads do).
func MutatedDNA(base string, seed int64, rate float64) string {
	rnd := rng.New(seed)
	buf := []byte(base)
	for i := range buf {
		if rnd.Float64() < rate {
			buf[i] = dnaAlphabet[rnd.Intn(4)]
		}
	}
	return string(buf)
}

// DNATrace is the simulator convenience: it builds the public index once
// per config and aligns a private sequence derived from the secret seed.
func DNATrace(secretSeed int64, cfg DNAConfig) (*trace.Slice, error) {
	public := RandomDNA(2, 400_000)
	idx, err := BuildIndex(public, cfg)
	if err != nil {
		return nil, err
	}
	// A long private read: the probe stream walks tens of thousands of
	// distinct buckets and chain nodes (several MiB), so the alignment
	// exercises memory rather than re-hitting the caches.
	private := MutatedDNA(public[:40_000], secretSeed, 0.05)
	tr, _, err := idx.Align(private)
	return tr, err
}
