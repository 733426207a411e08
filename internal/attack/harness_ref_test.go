package attack

import (
	"fmt"
	"slices"
	"testing"

	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/rdag"
	"dagguise/internal/sched"
	"dagguise/internal/shaper"
)

// This file keeps the attack rig as it stood before it ran on sim.System:
// its own DRAM device, controller, arbiter and shaper, wired by hand and
// stepped by its own loop. The wiring and the loop are verbatim, renamed
// only, as the reference TestRigMatchesHarnessLoop compares the rig with.

// refHarness wires a victim and an attacker to a shared memory controller
// under one protection scheme, without the full core model: both parties
// emit raw requests, which isolates the channel itself.
type refHarness struct {
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

// newRefHarness builds the shared-controller rig for the scheme. defense is
// used for DAGguise, dist for Camouflage; zero values select defaults.
func newRefHarness(scheme config.Scheme, defense rdag.Template, dist camouflage.Distribution, seed int64) (*refHarness, error) {
	cfg := config.Default(2, scheme)
	if scheme == config.DAGguise && defense.RowHitRatio > 0 {
		// Row-buffer-aware defense rDAGs prescribe the row behaviour
		// themselves; the closed-row policy is not needed (§4.4).
		cfg.ClosedRow = false
	}
	mapper := mem.MustMapper(cfg.Geometry)
	dev := dram.New(cfg.Timing, mapper, cfg.ClosedRow)
	h := &refHarness{scheme: scheme, mapper: mapper, dev: dev, defense: defense, dist: dist, seed: seed}

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

func (h *refHarness) alloc() uint64 {
	h.nextID++
	return h.nextID
}

// SetAuditTap attaches a leakage-audit tap recording every attacker probe
// as (completion cycle, latency). The tap is measurement-only — nothing in
// the harness reads it back — and a nil tap keeps the hook a no-op, so the
// probe sequence is bit-identical with auditing on and off.
func (h *refHarness) SetAuditTap(t *audit.Tap) { h.tap = t }

// victimEnqueue routes a victim request through the scheme's shaper (if
// any) or directly to the controller. The error reports a routing
// violation (a request tagged with the wrong domain).
func (h *refHarness) victimEnqueue(req mem.Request, now uint64) (bool, error) {
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
func (h *refHarness) Run(victim Pattern, probe Probe, nProbes int, maxCycles uint64) ([]uint64, error) {
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

// rigCase is one run compared between the rig and the reference loop.
type rigCase struct {
	scheme    config.Scheme
	defense   rdag.Template
	seed      int64
	victim    Pattern
	probe     Probe
	probes    int
	maxCycles uint64
}

// check runs the case on both rigs, each with an audit tap, and requires
// identical latencies, tap samples and errors.
func (c rigCase) check(t *testing.T) {
	t.Helper()
	dist := camouflage.Distribution{Intervals: []uint64{200, 400}}
	ref, err := newRefHarness(c.scheme, c.defense, dist, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	refTap := audit.NewTap()
	ref.SetAuditTap(refTap)
	want, wantErr := ref.Run(c.victim, c.probe, c.probes, c.maxCycles)
	h, err := NewHarness(c.scheme, c.defense, dist, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	tap := audit.NewTap()
	h.SetAuditTap(tap)
	got, gotErr := h.Run(c.victim, c.probe, c.probes, c.maxCycles)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%+v: error %v, reference %v", c, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%+v: latencies differ from the reference\n got %v\nwant %v", c, got, want)
	}
	if !slices.Equal(tap.Samples(), refTap.Samples()) {
		t.Fatalf("%+v: tap samples differ from the reference", c)
	}
}

// TestRigMatchesHarnessLoop runs the rig on sim.System against the loop it
// replaced, under every scheme and several shaper seeds. The victims are
// the Figure 5 pair with the Table 1 defense template, a row-aware
// open-row defense, an idle victim whose second request lies beyond any
// run, and a dense victim whose next request is waiting in the shaper
// almost every cycle. One more run per scheme exhausts its cycle budget.
func TestRigMatchesHarnessLoop(t *testing.T) {
	defense := rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8} // eval.DefaultDefense
	rowAware := rdag.Template{Sequences: 4, Weight: 150, Banks: 16, RowHitRatio: 0.5}
	s0, s1 := figure5Secrets()
	victims := []struct {
		p       Pattern
		defense rdag.Template
	}{
		{s0, defense},
		{s1, defense},
		{Pattern{Gaps: []uint64{100}, Banks: []int{0, 1}, Rows: []uint64{7}}, rowAware},
		{Pattern{Gaps: []uint64{1 << 62}, Banks: []int{7}}, defense},
		{Pattern{Gaps: []uint64{1, 2}, Banks: []int{0, 1, 2, 3, 4, 5, 6, 7}, Rows: []uint64{0, 5, 9}}, defense},
	}
	for _, scheme := range []config.Scheme{
		config.Insecure, config.Camouflage, config.FixedService,
		config.FSBTA, config.TemporalPartitioning, config.DAGguise,
	} {
		for _, seed := range []int64{0, 1, 2, 7} {
			for _, v := range victims {
				rigCase{scheme, v.defense, seed, v.p, defaultProbe(), 200, 0}.check(t)
			}
		}
		rigCase{scheme, defense, 7, s0, defaultProbe(), 1000, 20_000}.check(t)
	}
}

// FuzzRigMatchesHarnessLoop is the fuzzing form of
// TestRigMatchesHarnessLoop over schemes, seeds, victim patterns, probes
// and cycle budgets.
func FuzzRigMatchesHarnessLoop(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(100), uint16(200), uint8(0x0f), uint8(0), uint8(0), uint16(120), uint8(64), uint16(0))
	f.Add(uint8(5), int64(7), uint16(1), uint16(3), uint8(0xff), uint8(9), uint8(3), uint16(40), uint8(90), uint16(500))
	f.Add(uint8(4), int64(0), uint16(300), uint16(50), uint8(0x81), uint8(130), uint8(7), uint16(0), uint8(30), uint16(0))
	f.Fuzz(func(t *testing.T, scheme uint8, seed int64, gap0, gap1 uint16, banks, rows, probeBank uint8,
		probeGap uint16, probes uint8, budget uint16) {
		c := rigCase{
			scheme:  config.Scheme(scheme % 6),
			defense: rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8},
			seed:    seed,
			victim:  Pattern{Gaps: []uint64{uint64(gap0 % 1000), uint64(gap1 % 1000)}, Rows: []uint64{uint64(rows % 16), uint64(rows / 16)}},
			probe:   Probe{Bank: int(probeBank % 8), Row: uint64(probeBank / 8 % 4), Gap: uint64(probeGap % 400)},
			probes:  1 + int(probes%100),
		}
		if rows&0x80 != 0 {
			c.defense = rdag.Template{Sequences: 4, Weight: 150, Banks: 16, RowHitRatio: 0.5}
		}
		for b := 0; b < 8; b++ {
			if banks&(1<<b) != 0 {
				c.victim.Banks = append(c.victim.Banks, b)
			}
		}
		if len(c.victim.Banks) == 0 {
			c.victim.Banks = []int{int(banks % 8)}
		}
		if budget > 0 {
			c.maxCycles = 20 * uint64(budget)
		}
		c.check(t)
	})
}
