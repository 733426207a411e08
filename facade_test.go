package dagguise_test

import (
	"strings"
	"testing"

	"dagguise"
)

func TestFacadeRDAGHelpers(t *testing.T) {
	g := &dagguise.Graph{}
	a := g.AddVertex(0, 0)
	b := g.AddVertex(1, 0)
	g.AddEdge(a, b, 50)
	d, err := dagguise.NewGraphDriver(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if slots := d.Poll(0); len(slots) != 1 {
		t.Fatalf("graph driver slots = %d", len(slots))
	}
	pd, err := dagguise.NewPatternDriver(dagguise.Template{Sequences: 2, Weight: 10, Banks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if slots := pd.Poll(0); len(slots) != 2 {
		t.Fatalf("pattern driver slots = %d", len(slots))
	}
	space := dagguise.DefaultTemplateSpace(8)
	if len(space.Candidates()) == 0 {
		t.Fatal("empty default space")
	}
}

func TestFacadeConfigHelpers(t *testing.T) {
	timing := dagguise.DDR31600()
	if timing.TRC != 39 || timing.ClockRatio != 3 {
		t.Fatalf("DDR3-1600 parameters wrong: %+v", timing)
	}
	cfg := dagguise.DefaultConfig(8, dagguise.FSBTA)
	if cfg.Cores != 8 || !cfg.ClosedRow {
		t.Fatalf("config wrong: %+v", cfg)
	}
	if _, err := dagguise.ParseScheme("nonesuch"); err == nil {
		t.Fatal("unknown scheme parsed")
	}
}

func TestFacadeFigure1(t *testing.T) {
	rows, err := dagguise.Figure1Primer(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFacadeSMT(t *testing.T) {
	ops := dagguise.SMTSecretTrace([]int{1, 0})
	if len(ops) == 0 {
		t.Fatal("empty secret trace")
	}
	hasDiv := false
	for _, op := range ops {
		if op.Unit == dagguise.SMTDIV {
			hasDiv = true
		}
	}
	if !hasDiv {
		t.Fatal("set bit did not use the divider")
	}
	lats, err := dagguise.SMTRunChannel(ops, true, dagguise.SMTDefaultDefense(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(lats) != 20 {
		t.Fatalf("probes = %d", len(lats))
	}
	res, err := dagguise.SMTMeasureLeakage([]int{0, 0}, []int{1, 1}, dagguise.SMTDefaultDefense(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShapedMI != 0 {
		t.Fatalf("shaped SMT channel leaked %f", res.ShapedMI)
	}
}

func TestFacadeEnergy(t *testing.T) {
	counts := dagguise.EnergyCounts{
		Activates: 1000, Reads: 900, Writes: 100, SuppressedFakes: 300,
		Refreshes: 5, Cycles: 100_000, FreqMHz: 800,
	}
	res, err := dagguise.EstimateEnergy(dagguise.DDR3EnergyDefaults(), counts)
	if err != nil || res.TotalNJ <= 0 {
		t.Fatalf("energy estimate: %+v, %v", res, err)
	}
	frac, err := dagguise.FakeEnergyOverhead(dagguise.DDR3EnergyDefaults(), counts)
	if err != nil || frac <= 0 || frac >= 1 {
		t.Fatalf("fake overhead: %f, %v", frac, err)
	}
	saving, err := dagguise.SuppressionSaving(dagguise.DDR3EnergyDefaults(), counts)
	if err != nil || saving <= 0 {
		t.Fatalf("suppression saving: %f, %v", saving, err)
	}
}

func TestFacadeTraces(t *testing.T) {
	rec := dagguise.NewTraceRecorder()
	rec.Compute(5)
	rec.Load(0x40)
	rec.LoadDep(0x80)
	tr := rec.Trace()
	if len(tr.Ops) != 2 {
		t.Fatalf("recorded ops = %d", len(tr.Ops))
	}
	looped := dagguise.LoopTrace(tr)
	for i := 0; i < 5; i++ {
		if _, ok := looped.Next(); !ok {
			t.Fatal("loop exhausted")
		}
	}
	dna, err := dagguise.DNATrace(3, dagguise.DefaultDNAConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(dna.Ops) == 0 {
		t.Fatal("empty DNA trace")
	}
	if len(dagguise.Workloads()) != 15 {
		t.Fatal("workload count")
	}
}

func TestFacadeVerifyModelNames(t *testing.T) {
	cfg := dagguise.DefaultVerifyModel()
	cfg.Leaky = true
	_, cex, err := dagguise.LeakDetectionDepth(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cex.String(), "counterexample") {
		t.Fatal("counterexample rendering")
	}
}
