package eval

import (
	"reflect"
	"strings"
	"testing"

	"dagguise/internal/audit"
	"dagguise/internal/config"
)

func quickOpts() Options {
	return Options{Warmup: 10_000, Window: 120_000}
}

func TestFigure9ShapesOnSubset(t *testing.T) {
	opts := quickOpts()
	opts.Apps = []string{"lbm", "leela"}
	res, err := Figure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for name, v := range map[string]float64{
			"fs victim": row.FSBTAVictim, "fs spec": row.FSBTASpec,
			"dag victim": row.DAGguiseVictim, "dag spec": row.DAGguiseSpec,
		} {
			if v <= 0 || v > 1.6 {
				t.Errorf("%s: %s normalized IPC %f out of range", row.App, name, v)
			}
		}
	}
	// Memory-bound lbm: the co-runner must do much better under DAGguise
	// than FS-BTA (the headline claim).
	lbm := res.Rows[0]
	if !(lbm.DAGguiseSpec > lbm.FSBTASpec) {
		t.Errorf("lbm co-runner: dag %f <= fs %f", lbm.DAGguiseSpec, lbm.FSBTASpec)
	}
	if !(res.DAGguiseGeomean > res.FSBTAGeomean) {
		t.Errorf("geomean: dag %f <= fs %f", res.DAGguiseGeomean, res.FSBTAGeomean)
	}
	text := FormatFigure9(res)
	if !strings.Contains(text, "lbm") || !strings.Contains(text, "geomean") {
		t.Fatal("format incomplete")
	}
}

func TestFigure10ShapesOnSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("eight-core runs in short mode")
	}
	opts := quickOpts()
	opts.Apps = []string{"lbm"}
	res, err := Figure10(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if !(row.DAGguiseAvg > row.FSBTAAvg) {
		t.Errorf("8-core avg: dag %f <= fs %f", row.DAGguiseAvg, row.FSBTAAvg)
	}
	if FormatFigure10(res) == "" {
		t.Fatal("empty format")
	}
}

func TestTable1SecurityClassification(t *testing.T) {
	rows, err := Table1Observed(120, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		leaks := row.SequenceMI > 0.01
		if row.Secure && leaks {
			t.Errorf("%v measured secure but leaks %.3f bits/probe", row.Scheme, row.SequenceMI)
		}
		if row.Scheme == config.Insecure && !leaks {
			t.Error("insecure baseline shows no leakage; harness broken")
		}
		if row.Scheme == config.Camouflage && !leaks {
			t.Error("camouflage shows no leakage; Figure 2 not reproduced")
		}
		// The measured verdict must agree with the paper's classification
		// on this secret pair: the calibrated thresholds replace the
		// hard-coded Secure() mapping without changing the table.
		if row.Secure != row.Claimed {
			t.Errorf("%v: measured verdict %v disagrees with the paper's claim %v (agg %.4f thr %.4f, seq %.4f thr %.4f)",
				row.Scheme, row.Secure, row.Claimed,
				row.AggregateMI, row.AggThreshold, row.SequenceMI, row.SeqThreshold)
		}
		if !(row.AggMILo <= row.AggregateMI && row.AggregateMI <= row.AggMIHi) {
			t.Errorf("%v: CI [%.4f, %.4f] does not bracket aggregate MI %.4f",
				row.Scheme, row.AggMILo, row.AggMIHi, row.AggregateMI)
		}
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "insecure") || !strings.Contains(text, "claimed") {
		t.Fatal("FormatTable1 incomplete")
	}
}

func quickAuditConfig() audit.Config {
	cfg := audit.DefaultConfig()
	cfg.Window = 50
	cfg.Permutations = 100
	cfg.Bootstrap = 100
	return cfg
}

func TestAuditGateMatchesSchemeSecurity(t *testing.T) {
	insecure, err := Audit(config.Insecure, 100, quickAuditConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if insecure.WithinBudget {
		t.Fatal("insecure baseline within leakage budget; detector has no power")
	}
	dag, err := Audit(config.DAGguise, 100, quickAuditConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dag.WithinBudget {
		t.Fatalf("DAGguise over budget: window %d at cycle %d", dag.FirstExceeded, dag.FirstExceededCycle)
	}
}

func TestFigure7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep in short mode")
	}
	opts := Options{Warmup: 4_000, Window: 40_000}
	res, err := Figure7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 72 {
		t.Fatalf("points = %d, want 72 (4 sequences x 9 weights x 2 write ratios)", len(res.Points))
	}
	if res.Selected.Sequences == 0 {
		t.Fatal("no defense selected")
	}
	series := res.SeriesBySequences()
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4", len(series))
	}
	// Figure 7(a): within a series, IPC must not increase as the weight
	// grows (monotone to within noise).
	for seq, pts := range series {
		first, last := pts[0], pts[len(pts)-1]
		if first.IPC < last.IPC*0.95 {
			t.Errorf("seq=%d: IPC at weight %d (%f) below weight %d (%f)",
				seq, first.Template.Weight, first.IPC, last.Template.Weight, last.IPC)
		}
	}
}

func TestDefaultDefenseIsValid(t *testing.T) {
	if err := DefaultDefense().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFigure9WorkerCountInvariant pins that the parallel per-app fan-out
// changes nothing in the results: rows are independently seeded and
// assembled in app order, so any worker count produces identical numbers.
func TestFigure9WorkerCountInvariant(t *testing.T) {
	opts := quickOpts()
	opts.Apps = []string{"lbm", "xz", "roms"}
	solo, err := Figure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 3
	many, err := Figure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo, many) {
		t.Fatalf("Figure9 depends on worker count:\n1 worker:  %+v\n3 workers: %+v", solo, many)
	}
}
