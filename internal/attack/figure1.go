package attack

import (
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/rdag"
	"dagguise/internal/stats"
)

// Figure1Row is one scenario of the attack primer: the mean latency the
// attacker observes for its own same-bank probes while the victim behaves
// as described.
type Figure1Row struct {
	Scenario    string
	MeanLatency float64
}

// Figure1Primer reproduces the Figure 1 example on the insecure (open-row,
// FR-FCFS) configuration: the attacker's probe latency reveals whether the
// victim is idle, hitting a different bank, the same bank and row, or the
// same bank but a different row. attach, when non-nil, is called on every
// harness before it runs.
func Figure1Primer(probes int, attach func(*Harness)) ([]Figure1Row, error) {
	probe := Probe{Bank: 0, Row: 0, Gap: 200}
	scenarios := []struct {
		name   string
		victim Pattern
		idle   bool
	}{
		{"no victim activity", Pattern{}, true},
		{"different bank", Pattern{Gaps: []uint64{120}, Banks: []int{4}}, false},
		{"same bank, same row", Pattern{Gaps: []uint64{120}, Banks: []int{0}, Rows: []uint64{0}}, false},
		{"same bank, different row", Pattern{Gaps: []uint64{120}, Banks: []int{0}, Rows: []uint64{77}}, false},
	}
	var rows []Figure1Row
	for _, sc := range scenarios {
		h, err := NewHarness(config.Insecure, rdag.Template{}, camouflage.Distribution{}, 1)
		if err != nil {
			return nil, err
		}
		if attach != nil {
			attach(h)
		}
		victim := sc.victim
		if sc.idle {
			// An "idle" victim: requests so far apart they never collide.
			victim = Pattern{Gaps: []uint64{1 << 62}, Banks: []int{7}}
		}
		lats, err := h.Run(victim, probe, probes, 0)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(lats))
		for i, l := range lats {
			vals[i] = float64(l)
		}
		rows = append(rows, Figure1Row{Scenario: sc.name, MeanLatency: stats.Mean(vals)})
	}
	return rows, nil
}
