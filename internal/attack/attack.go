// Package attack implements the memory timing side-channel receiver of
// §2.2 and the leakage experiments of the evaluation: the Figure 1 attack
// primer (distinguishing a victim's bank/row behaviour from the latency of
// the attacker's own probes), the Figure 2 Camouflage ordering leak, and
// the Table 1 security comparison, quantified as mutual information
// between a binary victim secret and the attacker's observed latencies.
package attack

import (
	"fmt"
	"math/rand"

	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/obs"
	"dagguise/internal/rdag"
	"dagguise/internal/sched"
	"dagguise/internal/shaper"
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

// Harness wires a victim and an attacker to a shared memory controller
// under one protection scheme, without the full core model: both parties
// emit raw requests, which isolates the channel itself.
type Harness struct {
	scheme  config.Scheme
	mapper  *mem.Mapper
	dev     *dram.Device
	ctrl    *memctrl.Controller
	dag     *shaper.Shaper
	camo    *camouflage.Shaper
	egress  []mem.Request
	nextID  uint64
	defense rdag.Template
	dist    camouflage.Distribution
	seed    int64
	tap     *audit.Tap
}

const (
	victimDomain   mem.Domain = 1
	attackerDomain mem.Domain = 2
)

// NewHarness builds the shared-controller rig for the scheme. defense is
// used for DAGguise, dist for Camouflage; zero values select defaults.
func NewHarness(scheme config.Scheme, defense rdag.Template, dist camouflage.Distribution, seed int64) (*Harness, error) {
	cfg := config.Default(2, scheme)
	if scheme == config.DAGguise && defense.RowHitRatio > 0 {
		// Row-buffer-aware defense rDAGs prescribe the row behaviour
		// themselves; the closed-row policy is not needed (§4.4).
		cfg.ClosedRow = false
	}
	mapper := mem.MustMapper(cfg.Geometry)
	dev := dram.New(cfg.Timing, mapper, cfg.ClosedRow)
	h := &Harness{scheme: scheme, mapper: mapper, dev: dev, defense: defense, dist: dist, seed: seed}

	var policy memctrl.Scheduler
	partition := false
	groups := []sched.Group{{victimDomain}, {attackerDomain}}
	switch scheme {
	case config.Insecure, config.Camouflage, config.DAGguise:
		policy = memctrl.FRFCFS{}
	case config.FixedService:
		policy = sched.NewFixedService(cfg.Timing, groups)
		partition = true
	case config.FSBTA:
		policy = sched.NewFSBTA(cfg.Timing, groups)
		partition = true
	case config.TemporalPartitioning:
		policy = sched.NewTemporalPartitioning(cfg.Timing, groups, 96)
		partition = true
	default:
		return nil, fmt.Errorf("attack: unsupported scheme %v", scheme)
	}
	h.ctrl = memctrl.New(dev, mapper, policy, 64)
	if partition {
		h.ctrl.PartitionQueue(8)
	}

	switch scheme {
	case config.DAGguise:
		tpl := defense
		if tpl.Sequences == 0 {
			tpl = rdag.Template{Sequences: 4, Weight: 300, Banks: mapper.BankCount()}
		}
		driver, err := rdag.NewPatternDriver(tpl)
		if err != nil {
			return nil, err
		}
		h.dag = shaper.New(victimDomain, driver, mapper, 8, h.alloc, seed)
	case config.Camouflage:
		d := dist
		if len(d.Intervals) == 0 {
			d = camouflage.Distribution{Intervals: []uint64{200, 400}}
		}
		sh, err := camouflage.New(victimDomain, d, mapper, 8, h.alloc, seed)
		if err != nil {
			return nil, err
		}
		h.camo = sh
	}
	return h, nil
}

func (h *Harness) alloc() uint64 {
	h.nextID++
	return h.nextID
}

// SetAuditTap attaches a leakage-audit tap recording every attacker probe
// as (completion cycle, latency). The tap is measurement-only — nothing in
// the harness reads it back — and a nil tap keeps the hook a no-op, so the
// probe sequence is bit-identical with auditing on and off.
func (h *Harness) SetAuditTap(t *audit.Tap) { h.tap = t }

// Observe attaches an observability registry and tracer (either may be
// nil) to the harness's controller, DRAM device and shaper, mirroring
// sim.System.Observe for the attack rig.
func (h *Harness) Observe(mx *obs.Registry, tr *obs.Tracer) {
	h.ctrl.Observe(mx, tr)
	if h.dag != nil {
		h.dag.Observe(mx, tr)
	}
	if h.camo != nil {
		h.camo.Observe(mx, tr)
	}
}

// victimEnqueue routes a victim request through the scheme's shaper (if
// any) or directly to the controller. The error reports a routing
// violation (a request tagged with the wrong domain).
func (h *Harness) victimEnqueue(req mem.Request, now uint64) (bool, error) {
	switch {
	case h.dag != nil:
		if h.dag.Full() {
			return false, nil
		}
		return h.dag.Enqueue(req, now)
	case h.camo != nil:
		if h.camo.Full() {
			return false, nil
		}
		return h.camo.Enqueue(req, now)
	default:
		return h.ctrl.Enqueue(req, now), nil
	}
}

// Run simulates until the attacker collects nProbes latencies (or the
// cycle budget runs out) and returns them in probe order.
func (h *Harness) Run(victim Pattern, probe Probe, nProbes int, maxCycles uint64) ([]uint64, error) {
	if err := victim.Validate(); err != nil {
		return nil, err
	}
	if maxCycles == 0 {
		maxCycles = 30_000_000
	}
	var latencies []uint64

	// Victim state: closed loop over its pattern.
	vIdx := 0
	vOutstanding := false
	vNextAt := uint64(0)
	var vPendingID uint64

	// Attacker state.
	aOutstanding := false
	aNextAt := uint64(0)
	var aID uint64
	var aIssued uint64
	probeCol := 0

	for now := uint64(0); now < maxCycles && len(latencies) < nProbes; now++ {
		// Victim emission.
		if !vOutstanding && now >= vNextAt {
			bank := victim.Banks[vIdx%len(victim.Banks)]
			req := mem.Request{
				ID:     h.alloc(),
				Addr:   h.mapper.AddrForBank(bank, victim.row(vIdx), vIdx%32),
				Kind:   mem.Read,
				Domain: victimDomain,
				Issue:  now,
			}
			ok, err := h.victimEnqueue(req, now)
			if err != nil {
				return nil, err
			}
			if ok {
				vPendingID = req.ID
				vOutstanding = true
			}
		}
		// Attacker probe.
		if !aOutstanding && now >= aNextAt {
			probeCol = (probeCol + 1) % 2
			req := mem.Request{
				ID:     h.alloc(),
				Addr:   h.mapper.AddrForBank(probe.Bank, probe.Row, probeCol),
				Kind:   mem.Read,
				Domain: attackerDomain,
				Issue:  now,
			}
			if h.ctrl.Enqueue(req, now) {
				aID = req.ID
				aIssued = now
				aOutstanding = true
			}
		}
		// Shaper emission.
		if h.dag != nil {
			h.egress = append(h.egress, h.dag.Tick(now)...)
		}
		if h.camo != nil {
			h.egress = append(h.egress, h.camo.Tick(now)...)
		}
		for len(h.egress) > 0 && h.ctrl.Enqueue(h.egress[0], now) {
			h.egress = h.egress[1:]
		}
		// Controller.
		for _, resp := range h.ctrl.Tick(now) {
			switch resp.Domain {
			case attackerDomain:
				if resp.ID == aID {
					latencies = append(latencies, now-aIssued)
					h.tap.Record(now, now-aIssued)
					aOutstanding = false
					aNextAt = now + probe.Gap
				}
			case victimDomain:
				deliver := true
				if h.dag != nil {
					var err error
					deliver, err = h.dag.OnResponse(resp, now)
					if err != nil {
						return nil, err
					}
				} else if h.camo != nil {
					deliver = h.camo.OnResponse(resp, now)
				}
				if deliver && resp.ID == vPendingID {
					vOutstanding = false
					vIdx++
					vNextAt = now + victim.Gaps[(vIdx-1)%len(victim.Gaps)]
				}
			}
		}
	}
	if len(latencies) < nProbes {
		return latencies, fmt.Errorf("attack: collected %d of %d probes within %d cycles", len(latencies), nProbes, maxCycles)
	}
	return latencies, nil
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
	// accuracy over held-out trials (0.5 = chance, 1.0 = broken).
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
// of trials by L1 distance between latency vectors.
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
	ties := 0
	rng := rand.New(rand.NewSource(1))
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
			ties++
			if rng.Intn(2) == s.secret {
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
