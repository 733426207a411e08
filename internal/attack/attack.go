// Package attack implements the memory timing side-channel receiver of
// §2.2 and the leakage experiments of the evaluation: the Figure 1 attack
// primer (distinguishing a victim's bank/row behaviour from the latency of
// the attacker's own probes), the Figure 2 Camouflage ordering leak, and
// the Table 1 security comparison, quantified as mutual information
// between a binary victim secret and the attacker's observed latencies.
package attack

import (
	"context"
	"fmt"
	"math"

	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/cpu"
	"dagguise/internal/mem"
	"dagguise/internal/obs"
	"dagguise/internal/rdag"
	"dagguise/internal/rng"
	"dagguise/internal/sim"
	"dagguise/internal/stats"
)

// Pattern is a victim (transmitter) request schedule: request i goes to
// Banks[i mod len] Gaps[i mod len] cycles after the previous request
// completes (closed loop, matching the rDAG-style examples of Figure 5).
// The pattern is the secret-dependent behaviour the attacker tries to
// distinguish.
type Pattern struct {
	Gaps  []uint64
	Banks []int
	// Rows optionally pins each request's row (for row-buffer attacks);
	// empty means row 0.
	Rows []uint64
}

// Validate checks the pattern.
func (p Pattern) Validate() error {
	if len(p.Gaps) == 0 || len(p.Banks) == 0 {
		return fmt.Errorf("attack: pattern needs gaps and banks")
	}
	return nil
}

func (p Pattern) row(i int) uint64 {
	if len(p.Rows) == 0 {
		return 0
	}
	return p.Rows[i%len(p.Rows)]
}

// Probe configures the attacker (receiver): it keeps one outstanding read
// to (Bank, Row), reissuing Gap cycles after each response, and records
// each response latency — the exact observable of the channel.
type Probe struct {
	Bank int
	Row  uint64
	Gap  uint64
}

// Harness is the attack rig: a victim and an attacker sharing one memory
// controller under one protection scheme, without the full core model.
// Both are closed-loop tenants of a two-domain sim.System that emit raw
// requests, which isolates the channel itself; sim.New wires the scheme's
// policy, slot groups, queue partition and shaper exactly as it does for
// the simulated machine.
type Harness struct {
	sys      *sim.System
	victim   party
	attacker party
}

const (
	victimDomain   mem.Domain = 1
	attackerDomain mem.Domain = 2
)

// NewHarness builds the shared-controller rig for the scheme. defense is
// used for DAGguise, dist for Camouflage; zero values select sim.New's
// defaults. seed seeds the victim's shaper.
func NewHarness(scheme config.Scheme, defense rdag.Template, dist camouflage.Distribution, seed int64) (*Harness, error) {
	cfg := config.Default(2, scheme)
	mapper := mem.MustMapper(cfg.Geometry)
	h := &Harness{
		victim:   party{mapper: mapper, dom: victimDomain, cols: 32},
		attacker: party{mapper: mapper, dom: attackerDomain, cols: 2, col0: 1},
	}
	sys, err := sim.New(cfg, []sim.CoreSpec{
		{Name: "victim", Tenant: &h.victim, Protected: true, Defense: defense, Distribution: dist, ShaperSeed: seed},
		{Name: "attacker", Tenant: &h.attacker},
	})
	if err != nil {
		return nil, err
	}
	h.sys = sys
	return h, nil
}

// SetAuditTap attaches a leakage-audit tap recording every attacker probe
// as (completion cycle, latency). The tap is measurement-only — nothing in
// the harness reads it back — and a nil tap keeps the hook a no-op, so the
// probe sequence is bit-identical with auditing on and off.
func (h *Harness) SetAuditTap(t *audit.Tap) { h.attacker.tap = t }

// Observe attaches an observability registry and tracer (either may be
// nil) to the rig's machine through sim.System.Observe.
func (h *Harness) Observe(mx *obs.Registry, tr *obs.Tracer) { h.sys.Observe(mx, tr) }

// Run simulates until the attacker collects nProbes latencies (or the
// cycle budget runs out) and returns them in probe order. The machine
// runs through sim.System.Run, which skips the quiet cycles between
// memory events; the attacker's last probe ends the run. A harness runs
// once.
func (h *Harness) Run(victim Pattern, probe Probe, nProbes int, maxCycles uint64) ([]uint64, error) {
	if err := victim.Validate(); err != nil {
		return nil, err
	}
	if maxCycles == 0 {
		maxCycles = 30_000_000
	}
	h.victim.pat = victim
	h.attacker.pat = Pattern{Gaps: []uint64{probe.Gap}, Banks: []int{probe.Bank}, Rows: []uint64{probe.Row}}
	h.attacker.stopAt = nProbes
	if now := h.sys.Now(); now < maxCycles && nProbes > 0 {
		if err := h.sys.Run(context.Background(), maxCycles-now); err != nil {
			return nil, err
		}
	}
	lats := h.attacker.lats
	if len(lats) < nProbes {
		return lats, fmt.Errorf("attack: collected %d of %d probes within %d cycles", len(lats), nProbes, maxCycles)
	}
	return lats, nil
}

// party is the victim or the attacker, a closed-loop sim.Tenant that keeps
// one read outstanding: request k reads the bank and row of pattern entry
// k at column (k+col0) mod cols, and request k+1 issues gap k cycles after
// request k completes. Every completion's latency is kept, and recorded
// on the tap when one is set. The completion that brings the count to
// stopAt ends the run (0: none does).
type party struct {
	mapper     *mem.Mapper
	dom        mem.Domain
	cols, col0 int
	pat        Pattern
	tap        *audit.Tap
	lats       []uint64
	issued     uint64 // cycle the outstanding request issued
	stopAt     int
}

// Tick implements sim.Tenant: it offers request k, whose index is the
// number of completions so far, and retries on the next cycle if refused.
func (p *party) Tick(now uint64, port cpu.Port, alloc cpu.IDAlloc) uint64 {
	k := len(p.lats)
	req := mem.Request{
		ID:     alloc(),
		Addr:   p.mapper.AddrForBank(p.pat.Banks[k%len(p.pat.Banks)], p.pat.row(k), (k+p.col0)%p.cols),
		Kind:   mem.Read,
		Domain: p.dom,
		Issue:  now,
	}
	if !port.TryEnqueue(req, now) {
		return now + 1
	}
	p.issued = now
	return math.MaxUint64
}

// OnResponse implements sim.Tenant. The shaper has already swallowed the
// domain's fakes, so every response delivered here is the outstanding
// request's.
func (p *party) OnResponse(_ mem.Response, now uint64) (uint64, bool) {
	k := len(p.lats)
	p.lats = append(p.lats, now-p.issued)
	p.tap.Record(now, now-p.issued)
	return now + p.pat.Gaps[k%len(p.pat.Gaps)], k+1 == p.stopAt
}

// LeakageBinWidth is the latency-histogram bin width (cycles) every MI
// estimate of the leakage experiments uses, shared with the calibration in
// internal/eval so thresholds and estimates bin identically.
const LeakageBinWidth = 8

// LeakageResult quantifies how distinguishable two victim secrets are.
type LeakageResult struct {
	// AggregateMI is the mutual information between the secret and the
	// attacker's latency histogram (order-blind), Miller–Madow corrected.
	AggregateMI float64
	// SequenceMI is the per-probe-position mutual information, which
	// also captures ordering leaks (Figure 2).
	SequenceMI float64
	// Accuracy is a nearest-neighbour classifier's secret-guessing
	// accuracy over held-out trials (0.5 = chance, 1.0 = broken). When
	// every trial's latency vector is identical, as on the schemes that
	// close the channel, every guess is a tie broken by a coin seeded with
	// 1, and the value is that coin's hit rate over the 2·trials guesses:
	// 2 of 6 (0.333) at 3 trials per secret, 2 of 4 (0.5) at 2.
	Accuracy float64
	// Raw0 / Raw1 are the pooled per-secret latency samples behind
	// AggregateMI, kept so callers can calibrate thresholds (permutation
	// testing) and attach confidence intervals (bootstrap) to the point
	// estimates above.
	Raw0, Raw1 []uint64
	// Seq0 / Seq1 are the per-probe-position samples behind SequenceMI
	// (position i holds one latency per trial), kept for the same reason.
	Seq0, Seq1 [][]uint64
}

// MeasureOpts carries the optional knobs of MeasureLeakageOpts.
type MeasureOpts struct {
	// Attach, when non-nil, is called on every freshly built harness
	// before it runs — the hook the CLIs use to wire a shared
	// observability registry and tracer across an experiment's runs.
	Attach func(*Harness)
}

// MeasureLeakageOpts runs the two secret patterns for several trials each
// (varying shaper seeds) and quantifies attacker-side distinguishability.
func MeasureLeakageOpts(scheme config.Scheme, defense rdag.Template, dist camouflage.Distribution,
	secret0, secret1 Pattern, probe Probe, probes, trials int, opts MeasureOpts) (LeakageResult, error) {

	if trials < 1 {
		trials = 1
	}
	run := func(p Pattern, seed int64) ([]uint64, error) {
		h, err := NewHarness(scheme, defense, dist, seed)
		if err != nil {
			return nil, err
		}
		if opts.Attach != nil {
			opts.Attach(h)
		}
		return h.Run(p, probe, probes, 0)
	}

	all0 := make([][]uint64, trials)
	all1 := make([][]uint64, trials)
	for tr := 0; tr < trials; tr++ {
		var err error
		if all0[tr], err = run(secret0, int64(tr)*1543+7); err != nil {
			return LeakageResult{}, err
		}
		if all1[tr], err = run(secret1, int64(tr)*1543+7); err != nil {
			return LeakageResult{}, err
		}
	}

	// Aggregate: pool every latency by secret.
	var flat0, flat1 []uint64
	for tr := 0; tr < trials; tr++ {
		flat0 = append(flat0, all0[tr]...)
		flat1 = append(flat1, all1[tr]...)
	}
	// Per-position: samples across trials at each probe index.
	seq0 := make([][]uint64, probes)
	seq1 := make([][]uint64, probes)
	for i := 0; i < probes; i++ {
		for tr := 0; tr < trials; tr++ {
			seq0[i] = append(seq0[i], all0[tr][i])
			seq1[i] = append(seq1[i], all1[tr][i])
		}
	}
	const binWidth = LeakageBinWidth
	res := LeakageResult{
		AggregateMI: stats.BinaryMI(flat0, flat1, binWidth),
		SequenceMI:  stats.SequenceMI(seq0, seq1, binWidth),
		Raw0:        flat0,
		Raw1:        flat1,
		Seq0:        seq0,
		Seq1:        seq1,
	}
	res.Accuracy = classifierAccuracy(all0, all1)
	return res, nil
}

// classifierAccuracy does leave-one-out nearest-neighbour classification
// of trials by L1 distance between latency vectors. A guess whose nearest
// trials carry both secrets is a tie, decided by a coin seeded with 1.
func classifierAccuracy(all0, all1 [][]uint64) float64 {
	type sample struct {
		vec    []uint64
		secret int
	}
	var samples []sample
	for _, v := range all0 {
		samples = append(samples, sample{v, 0})
	}
	for _, v := range all1 {
		samples = append(samples, sample{v, 1})
	}
	if len(samples) < 2 {
		return 0.5
	}
	dist := func(a, b []uint64) uint64 {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		var d uint64
		for i := 0; i < n; i++ {
			if a[i] > b[i] {
				d += a[i] - b[i]
			} else {
				d += b[i] - a[i]
			}
		}
		return d
	}
	correct := 0
	coin := rng.New(1)
	for i, s := range samples {
		bestD := ^uint64(0)
		bestSecret := -1
		tie := false
		for j, o := range samples {
			if i == j {
				continue
			}
			d := dist(s.vec, o.vec)
			switch {
			case d < bestD:
				bestD = d
				bestSecret = o.secret
				tie = false
			case d == bestD && o.secret != bestSecret:
				tie = true
			}
		}
		if tie {
			if coin.Intn(2) == s.secret {
				correct++
			}
			continue
		}
		if bestSecret == s.secret {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
