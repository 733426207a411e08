package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the program's metric tables and
// BENCHMARK.json in step: same names, units and order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, bench.Workloads[i].Name, w.name)
		}
	}
}

// simulated reports whether a per-layer metric is a model count that must
// repeat exactly: everything but host times, runtime and trace figures.
func simulated(s spec) bool {
	switch {
	case strings.HasPrefix(s.name, "go."), strings.HasPrefix(s.name, "trace."):
		return false
	case s.unit == "s", s.unit == "ms", s.unit == "kobs/s":
		return false
	}
	return true
}

// TestSmoke runs every workload with the fewest iterations, untraced and
// traced, and checks that every metric is emitted with its unit, that the
// oracle passes, and that the simulated counts repeat across two runs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var goldens map[string]goldenSet
	if err := json.Unmarshal(goldenJSON, &goldens); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := measure(w, &env{input: 3, scratch: dir, checks: &checks{}}, 0, false, goldens[w.name])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("oracle: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
			if ok := res.Metrics["ok_ratio"].Value; ok != 1 {
				t.Errorf("ok_ratio = %v, want 1", ok)
			}

			var runs [2]result
			for i := range runs {
				runs[i], err = measure(w, &env{input: 3, scratch: dir, checks: &checks{}}, 0, true, goldens[w.name])
				if err != nil {
					t.Fatal(err)
				}
				if runs[i].Failed != 0 {
					t.Fatalf("traced run %d: %d of %d checks failed", i, runs[i].Failed, runs[i].Attempted)
				}
			}
			for _, m := range perLayer {
				a, ok := runs[0].Metrics[m.name]
				if !ok || a.Unit != m.unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.name, a, ok, m.unit)
					continue
				}
				if b := runs[1].Metrics[m.name]; simulated(m) && a.Value != b.Value {
					t.Errorf("per-layer %s differs between runs: %v then %v", m.name, a.Value, b.Value)
				}
			}
			if cov := runs[0].Metrics["trace.coverage"].Value; cov <= 0 || cov > 1.01 {
				t.Errorf("trace.coverage = %v, want a share in (0, 1]", cov)
			}
		})
	}
}
