package dagguise_test

import (
	"context"
	"testing"

	"dagguise"
)

// TestPublicAPIEndToEnd exercises the facade the way the README's
// quickstart does: build a protected two-core system, run it, and check
// the victim makes progress behind its shaper.
func TestPublicAPIEndToEnd(t *testing.T) {
	victimTrace, err := dagguise.DocDistTrace(7, dagguise.DefaultDocDistConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, err := dagguise.WorkloadByName("xz")
	if err != nil {
		t.Fatal(err)
	}
	coSrc, err := dagguise.NewWorkloadSource(prof, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dagguise.NewSystem(dagguise.DefaultConfig(2, dagguise.DAGguise), []dagguise.CoreSpec{
		{
			Name:      "victim",
			Source:    dagguise.LoopTrace(victimTrace),
			Protected: true,
			Defense:   dagguise.Template{Sequences: 4, Weight: 300, WriteRatio: 0.001, Banks: 8},
		},
		{Name: "xz", Source: coSrc},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Measure(context.Background(), 10_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	if res.Cores[0].IPC <= 0 || res.Cores[1].IPC <= 0 {
		t.Fatalf("zero IPC: %+v", res.Cores)
	}
	if res.Cores[0].ShaperForwarded == 0 {
		t.Fatal("shaper inactive")
	}
}

func TestPublicVerification(t *testing.T) {
	k, err := dagguise.MinimalVerifiedK(dagguise.DefaultVerifyModel(), 12)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dagguise.VerifySecurity(dagguise.DefaultVerifyModel(), k)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds() {
		t.Fatalf("verification failed at k=%d: %+v", k, rep)
	}
	leaky := dagguise.DefaultVerifyModel()
	leaky.Leaky = true
	depth, cex, err := dagguise.LeakDetectionDepth(leaky, 16)
	if err != nil {
		t.Fatal(err)
	}
	if depth == 0 || cex == nil {
		t.Fatal("leaky model not caught through the facade")
	}
}

func TestPublicLeakageAndArea(t *testing.T) {
	s0 := dagguise.AttackPattern{Gaps: []uint64{100}, Banks: []int{0, 1}}
	s1 := dagguise.AttackPattern{Gaps: []uint64{200}, Banks: []int{0, 1}}
	probe := dagguise.AttackProbe{Bank: 0, Gap: 120}
	res, err := dagguise.MeasureLeakage(dagguise.DAGguise, dagguise.Template{}, dagguise.CamouflageDistribution{},
		s0, s1, probe, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SequenceMI != 0 {
		t.Fatalf("DAGguise leaked through the facade: %f", res.SequenceMI)
	}
	areaRes, err := dagguise.EstimateArea(dagguise.Table3AreaConfig())
	if err != nil {
		t.Fatal(err)
	}
	if areaRes.TotalAreaMM2 <= 0.03 || areaRes.TotalAreaMM2 >= 0.05 {
		t.Fatalf("area = %f, want ~0.037", areaRes.TotalAreaMM2)
	}
}

func TestPublicProfiling(t *testing.T) {
	victimTrace, err := dagguise.DocDistTrace(7, dagguise.DefaultDocDistConfig())
	if err != nil {
		t.Fatal(err)
	}
	space := dagguise.TemplateSpace{Sequences: []int{2, 8}, Weights: []uint64{90, 600}, Banks: 8}
	res, err := dagguise.ProfileVictim(func() dagguise.TraceSource {
		cp := *victimTrace
		return &cp
	}, space, dagguise.ProfileOptions{Warmup: 3000, Window: 30_000, KneeFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 || res.Selected.Sequences == 0 {
		t.Fatalf("profile incomplete: %+v", res)
	}
}

func TestSchemeParsingRoundTrip(t *testing.T) {
	for _, s := range []dagguise.Scheme{dagguise.Insecure, dagguise.FSBTA, dagguise.DAGguise, dagguise.Camouflage} {
		got, err := dagguise.ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip of %v failed: %v, %v", s, got, err)
		}
	}
}
