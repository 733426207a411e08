package attack

import (
	"testing"

	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/rdag"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
)

func TestPatternFromTrace(t *testing.T) {
	tr, err := victim.DocDistTrace(11, victim.DefaultDocDist())
	if err != nil {
		t.Fatal(err)
	}
	p, err := PatternFromTrace(tr, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Gaps) != 200 || len(p.Banks) != 200 || len(p.Rows) != 200 {
		t.Fatalf("pattern sizes %d/%d/%d", len(p.Gaps), len(p.Banks), len(p.Rows))
	}
	for i := range p.Gaps {
		if p.Gaps[i] == 0 {
			t.Fatal("zero gap")
		}
		if p.Banks[i] < 0 || p.Banks[i] >= 8 {
			t.Fatalf("bank %d out of range", p.Banks[i])
		}
	}
}

func TestPatternFromTraceRejectsEmptyTrace(t *testing.T) {
	if _, err := PatternFromTrace(&trace.Slice{}, 10); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestEndToEndRealVictimLeakage is the headline end-to-end result: two
// REAL DocDist computations over different private documents, distilled to
// their memory-controller request streams, are distinguishable by the
// attacker on the insecure baseline and indistinguishable under DAGguise.
func TestEndToEndRealVictimLeakage(t *testing.T) {
	trA, err := victim.DocDistTrace(11, victim.DefaultDocDist())
	if err != nil {
		t.Fatal(err)
	}
	trB, err := victim.DocDistTrace(999, victim.DefaultDocDist())
	if err != nil {
		t.Fatal(err)
	}
	pA, err := PatternFromTrace(trA, 150)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := PatternFromTrace(trB, 150)
	if err != nil {
		t.Fatal(err)
	}

	probe := Probe{Bank: 0, Row: 0, Gap: 120}
	insecure, err := MeasureLeakageOpts(config.Insecure, rdag.Template{}, camouflage.Distribution{},
		pA, pB, probe, 150, 2, MeasureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if insecure.SequenceMI < 0.02 {
		t.Fatalf("real DocDist documents not distinguishable on the insecure baseline: MI=%f", insecure.SequenceMI)
	}
	shaped, err := MeasureLeakageOpts(config.DAGguise, rdag.Template{Sequences: 8, Weight: 150, Banks: 8},
		camouflage.Distribution{}, pA, pB, probe, 150, 2, MeasureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if shaped.AggregateMI != 0 || shaped.SequenceMI != 0 {
		t.Fatalf("DAGguise leaked real DocDist documents: %f/%f", shaped.AggregateMI, shaped.SequenceMI)
	}
}
