package victim

import (
	"math"
	"testing"

	"dagguise/internal/mem"
)

func TestDocDistComputesRealDistance(t *testing.T) {
	cfg := DocDistConfig{Vocabulary: 16, EntryBytes: 8, ComputePerWord: 4, Base: 0}
	ref := make([]float64, 16)
	ref[3] = 2 // reference contains word 3 twice
	input := []int{3, 5, 5}
	_, dist, err := DocDist(input, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// counts: w3=1, w5=2. distance = sqrt((1-2)^2 + (2-0)^2) = sqrt(5).
	if math.Abs(dist-math.Sqrt(5)) > 1e-9 {
		t.Fatalf("distance = %f, want sqrt(5)", dist)
	}
}

func TestDocDistTraceLeaksInput(t *testing.T) {
	cfg := DocDistConfig{Vocabulary: 64, EntryBytes: 8, ComputePerWord: 4, Base: 0}
	ref := make([]float64, 64)
	trA, _, err := DocDist([]int{1, 2, 3}, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trB, _, _ := DocDist([]int{9, 9, 9}, ref, cfg)
	if len(trA.Ops) != len(trB.Ops) {
		t.Fatal("same-length docs should give same-length traces")
	}
	// The counting-phase accesses must differ (that's the leak DAGguise
	// hides); the zeroing and distance phases are input-independent.
	differ := false
	for i := range trA.Ops {
		if trA.Ops[i].Addr != trB.Ops[i].Addr {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("counting-phase addresses identical for different documents")
	}
}

func TestDocDistRejectsBadInput(t *testing.T) {
	cfg := DocDistConfig{Vocabulary: 8, EntryBytes: 8}
	if _, _, err := DocDist([]int{99}, make([]float64, 8), cfg); err == nil {
		t.Fatal("out-of-vocabulary word accepted")
	}
	if _, _, err := DocDist(nil, make([]float64, 4), cfg); err == nil {
		t.Fatal("mismatched reference vector accepted")
	}
	if _, _, err := DocDist(nil, nil, DocDistConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestDocDistTraceHasWritesAndReads(t *testing.T) {
	tr, err := DocDistTrace(5, DefaultDocDist())
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes int
	for _, op := range tr.Ops {
		if op.Kind == mem.Write {
			writes++
		} else {
			reads++
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("trace reads=%d writes=%d", reads, writes)
	}
}

// TestDocDistTraceReservesExactly checks that DocDistTrace reserves its
// op count exactly, so the recording makes one allocation and no growth
// copies: 8 documents of 3 ops per vocabulary entry plus 3 per word.
func TestDocDistTraceReservesExactly(t *testing.T) {
	tr, err := DocDistTrace(11, DefaultDocDist())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) != 822_432 || cap(tr.Ops) != len(tr.Ops) {
		t.Fatalf("recorded %d ops into a capacity of %d; want 822432 in exactly as many", len(tr.Ops), cap(tr.Ops))
	}
}

func TestRandomDocZipfian(t *testing.T) {
	doc := RandomDoc(1, 10000, 1000)
	counts := map[int]int{}
	for _, w := range doc {
		if w < 0 || w >= 1000 {
			t.Fatalf("word %d outside vocabulary", w)
		}
		counts[w]++
	}
	// Zipf: the most common word should dominate.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 1000 {
		t.Fatalf("most common word appears %d times; expected Zipf head", max)
	}
}

func TestDNAConfigValidate(t *testing.T) {
	bad := []DNAConfig{
		{K: 0, Buckets: 8, NodeBytes: 64},
		{K: 4, Buckets: 6, NodeBytes: 64},
		{K: 4, Buckets: 8, NodeBytes: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDNAAlignFindsPlantedMatches(t *testing.T) {
	cfg := DNAConfig{K: 4, Buckets: 64, NodeBytes: 64, ComputePerKmer: 2, Base: 0}
	public := "ACGTACGTTTTTGGGGCCCC"
	idx, err := BuildIndex(public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Private sequence containing the public k-mer "ACGT" once.
	_, matches, err := idx.Align("AAACGTAA")
	if err != nil {
		t.Fatal(err)
	}
	if matches == 0 {
		t.Fatal("planted k-mer not found")
	}
	// A sequence sharing nothing with the public one.
	_, none, _ := idx.Align("AAAAAAAA")
	if none != 0 {
		// "AAAA" could collide only if present in public; it is not.
		t.Fatalf("unexpected matches: %d", none)
	}
}

func TestDNATraceLeaksPrivateSequence(t *testing.T) {
	cfg := DNAConfig{K: 4, Buckets: 256, NodeBytes: 64, ComputePerKmer: 2, Base: 0}
	idx, err := BuildIndex(RandomDNA(1, 4096), cfg)
	if err != nil {
		t.Fatal(err)
	}
	trA, _, _ := idx.Align(RandomDNA(10, 64))
	trB, _, _ := idx.Align(RandomDNA(11, 64))
	same := len(trA.Ops) == len(trB.Ops)
	if same {
		for i := range trA.Ops {
			if trA.Ops[i].Addr != trB.Ops[i].Addr {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different private sequences produced identical probe traces")
	}
}

func TestDNAChainProbesAreDependent(t *testing.T) {
	cfg := DNAConfig{K: 4, Buckets: 2, NodeBytes: 64, ComputePerKmer: 2, Base: 0}
	// Two buckets force long chains.
	idx, err := BuildIndex(RandomDNA(3, 1024), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _ := idx.Align("ACGTACGT")
	deps := 0
	for _, op := range tr.Ops {
		if op.Dep > 0 {
			deps++
		}
	}
	if deps == 0 {
		t.Fatal("no dependent chain probes recorded")
	}
}

func TestMutatedDNA(t *testing.T) {
	base := RandomDNA(5, 1000)
	mut := MutatedDNA(base, 6, 0.1)
	if len(mut) != len(base) {
		t.Fatal("length changed")
	}
	diff := 0
	for i := range base {
		if base[i] != mut[i] {
			diff++
		}
	}
	if diff == 0 || diff > 300 {
		t.Fatalf("mutations = %d of 1000 at rate 0.1", diff)
	}
}

func TestDNATraceConvenience(t *testing.T) {
	cfg := DNAConfig{K: 8, Buckets: 1 << 10, NodeBytes: 64, ComputePerKmer: 8, Base: 0x1000}
	tr, err := DNATrace(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) == 0 {
		t.Fatal("empty DNA trace")
	}
}

func TestBuildIndexErrors(t *testing.T) {
	cfg := DNAConfig{K: 30, Buckets: 8, NodeBytes: 64}
	if _, err := BuildIndex("SHORT", cfg); err == nil {
		t.Fatal("short public sequence accepted")
	}
	idx, err := BuildIndex(RandomDNA(1, 100), DNAConfig{K: 10, Buckets: 8, NodeBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := idx.Align("ACG"); err == nil {
		t.Fatal("short private sequence accepted")
	}
}
