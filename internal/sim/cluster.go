package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/mem"
	"dagguise/internal/rdag"
	"dagguise/internal/rng"
)

// clusterMaxOutstanding bounds each tenant's in-flight requests, standing in
// for the MSHR limit of a real core's memory interface.
const clusterMaxOutstanding = 4

// NewCluster builds the datacenter-scale machine of the fleet fabric: N
// memory channels, each with its own controller and DRAM device, shared by
// up to hundreds of concurrent security domains. Tenant requests hash
// across the channels via mem.RouteChannel. The scheme is built as New
// builds it (buildPolicy, shapePort): the first cfg.Protected tenants get
// their own slot groups or one shaper per channel, and every scheme but
// the insecure baseline partitions each transaction queue per domain.
//
// The machine owns only the channel slice [chanLo, chanHi) of the
// configured channels — the unit of fleet sharding. Requests the router
// sends outside the slice are counted as remote and complete immediately
// (they are simulated by the shard that owns that slice), which keeps
// every shard a pure function of its descriptor.
//
// seed fixes every derived tenant and shaper stream; secret is the value
// the protected tenants' traffic intensity encodes (the twin-run
// observable of the non-interference audit). Tenants are open-loop
// generators over rng.Derive substreams and all per-entity iteration is in
// index order, so the machine is deterministic end to end.
func NewCluster(cfg config.MultiChannelConfig, chanLo, chanHi int, seed int64, secret int) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if chanLo < 0 || chanHi > cfg.Channels || chanLo >= chanHi {
		return nil, fmt.Errorf("sim: channel slice [%d, %d) outside [0, %d)", chanLo, chanHi, cfg.Channels)
	}
	s := &System{scheme: cfg.Scheme, chanLo: chanLo, routeWidth: cfg.Channels, seed: seed, secret: secret}
	geo := cfg.Geometry
	capBytes := uint64(geo.CapacityGiB)
	if capBytes == 0 {
		capBytes = 4
	}
	s.taps = make([]tapSlot, cfg.Domains+1)
	protected := make([]bool, cfg.Domains)
	for i := 0; i < cfg.Domains; i++ {
		protected[i] = i < cfg.Protected
		g := &generator{
			GeneratorState: GeneratorState{Index: i},
			s:              s,
			dom:            domainOf(i),
			protected:      protected[i],
			rng:            rng.New(rng.Derive(seed, fmt.Sprintf("tenant-%05d", i))),
			lineBytes:      uint64(geo.LineBytes),
			lines:          (capBytes << 30) / uint64(geo.LineBytes),
		}
		if g.protected {
			// Victims alternate hot bursts and idle phases; the phase
			// pattern is the secret (see gap()).
			g.gapBase = 256
		} else {
			g.gapBase = 48 + uint64(i%5)*16
			s.taps[g.dom].tap = audit.NewTap()
		}
		s.gens = append(s.gens, g)
	}
	s.queueGens()
	partition := 0
	if cfg.Scheme != config.Insecure {
		partition = cfg.QueueDepth
	}
	for ch := chanLo; ch < chanHi; ch++ {
		policy, err := buildPolicy(cfg.Scheme, cfg.Timing, 0, protected)
		if err != nil {
			return nil, err
		}
		// The capacity must cover the per-domain partitions in full, or a
		// checkpoint cut at high occupancy could fail queue validation on
		// restore.
		u, err := s.addChannel(ch, geo, cfg.Timing, cfg.ClosedRow(), policy,
			cfg.QueueDepth*cfg.Domains, partition, cfg.Domains)
		if err != nil {
			return nil, err
		}
		var tpl rdag.Template
		if len(cfg.ChannelDefenses) > 0 {
			tpl = cfg.ChannelDefenses[ch]
		}
		for _, p := range u.ports[:cfg.Protected] {
			sseed := rng.Derive(seed, fmt.Sprintf("shaper-ch%04d-dom%05d", ch, int(p.dom)))
			if err := s.shapePort(u, p, tpl, camouflage.Distribution{}, cfg.ShaperDepth, sseed, sseed); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// generator is one open-loop security domain. Protected tenants carry
// the secret in their traffic intensity: the generated address stream and
// the rng draw sequence are secret-independent by construction, only the
// inter-request gap is modulated by secret bits, so any secret-dependent
// difference an unprotected tenant observes is a genuine timing channel.
type generator struct {
	GeneratorState // the mutable state, saved and restored whole
	s              *System
	dom            mem.Domain
	protected      bool
	gapBase        uint64
	rng            *rng.Rand
	lineBytes      uint64
	lines          uint64 // line addresses in the configured capacity
}

// genQueue is a min-heap of generators by (NextAt, Index): the due-queue
// of the generators that hold no refused request and are below the
// outstanding limit, the only ones whose next step waits on NextAt alone.
type genQueue []*generator

func (q genQueue) less(i, j int) bool {
	a, b := q[i], q[j]
	return a.NextAt < b.NextAt || a.NextAt == b.NextAt && a.Index < b.Index
}

func (q *genQueue) push(g *generator) {
	h := append(*q, g)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *genQueue) pop() *generator {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// wake is the earliest NextAt in the queue, math.MaxUint64 when empty.
func (q genQueue) wake() uint64 {
	if len(q) == 0 {
		return math.MaxUint64
	}
	return q[0].NextAt
}

// queueGens rebuilds the generator bookkeeping from the generators' state:
// the refused list in index order, the due-queue and genWake.
func (s *System) queueGens() {
	s.refused, s.genQ = s.refused[:0], s.genQ[:0]
	for _, g := range s.gens {
		switch {
		case g.Pending != nil:
			s.refused = append(s.refused, g)
		case g.Outstanding < clusterMaxOutstanding:
			s.genQ.push(g)
		}
	}
	s.genWake = s.genQ.wake()
}

// port returns the local port a request routes to. Only a local request
// can be refused, so a pending one always has one.
func (g *generator) port(req mem.Request) *port {
	ch := mem.RouteChannel(req.Domain, req.Addr, g.s.routeWidth) - g.s.chanLo
	return g.s.chans[ch].ports[g.Index]
}

// step retries a refused request, or draws and issues the next one.
func (g *generator) step(now uint64) {
	if g.Pending != nil {
		if g.issue(*g.Pending, now) {
			g.Pending = nil
		} else {
			g.Stalls++
		}
		return
	}
	req := g.generate(now)
	g.NextAt = now + g.gap()
	if !g.issue(req, now) {
		g.Pending = &req
		g.Stalls++
	}
}

// gap returns the next inter-request gap. Protected tenants walk the
// secret's bits: a set bit stretches the gap by 8x the base (an idle
// phase), a clear bit keeps the burst pace. The jitter draw is taken
// unconditionally so the rng position — and with it the secret-independent
// address stream — never depends on the secret.
func (g *generator) gap() uint64 {
	jitter := uint64(g.rng.Int63n(32))
	if !g.protected {
		return g.gapBase + jitter
	}
	bit := (uint64(g.s.secret) >> (g.Generated % 16)) & 1
	return g.gapBase/8 + jitter + bit*g.gapBase*8
}

// generate draws the next request: a uniformly random line address in the
// configured capacity. Writes are deterministic (every 16th request), so
// the kind mix costs no rng draws.
func (g *generator) generate(now uint64) mem.Request {
	addr := (uint64(g.rng.Int63()) % g.lines) * g.lineBytes
	kind := mem.Read
	if g.Generated%16 == 15 {
		kind = mem.Write
	}
	g.Generated++
	return mem.Request{ID: g.s.alloc(), Addr: addr, Kind: kind, Domain: g.dom, Issue: now}
}

// issue routes one request to its channel's port. It reports whether the
// request left the tenant (accepted locally, or remote and therefore out
// of this shard's hands).
func (g *generator) issue(req mem.Request, now uint64) bool {
	ch := mem.RouteChannel(req.Domain, req.Addr, g.s.routeWidth) - g.s.chanLo
	if ch < 0 || ch >= len(g.s.chans) {
		g.Remote++
		return true
	}
	if !g.s.chans[ch].ports[g.Index].TryEnqueue(req, now) {
		return false
	}
	g.Outstanding++
	g.Issued++
	return true
}

// complete retires one of the tenant's requests.
func (g *generator) complete() {
	if g.Outstanding > 0 {
		g.Outstanding--
	}
	g.Completed++
}

// AuditDigest hashes the attacker-observable record: every audit tap's
// response-timing samples, walked in domain order (a NewCluster-built
// system taps every unprotected tenant). Two twin runs differing only in
// the protected tenants' secret must produce equal digests under a sound
// defense; any difference is interference.
func (s *System) AuditDigest() string {
	h := sha256.New()
	var buf [8]byte
	for d, slot := range s.taps {
		if slot.tap == nil {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(d-1))
		h.Write(buf[:])
		samples := slot.tap.Samples()
		binary.LittleEndian.PutUint64(buf[:], uint64(len(samples)))
		h.Write(buf[:])
		for _, smp := range samples {
			binary.LittleEndian.PutUint64(buf[:], smp.Cycle)
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], smp.Value)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ClusterCounters aggregates the machine's deterministic counters; every
// field is a pure function of the constructor arguments and the cycle
// count, so they are safe to fold into byte-stable fleet reports.
type ClusterCounters struct {
	Cycles          uint64   `json:"cycles"`
	Tenants         int      `json:"tenants"`
	Issued          uint64   `json:"issued"`
	Completed       uint64   `json:"completed"`
	Remote          uint64   `json:"remote"`
	Stalls          uint64   `json:"stalls"`
	ShaperForwarded uint64   `json:"shaper_forwarded"`
	ShaperFakes     uint64   `json:"shaper_fakes"`
	TapSamples      uint64   `json:"tap_samples"`
	ChannelIssued   []uint64 `json:"channel_issued"`
	// Fault-campaign counters (zero — and absent from the JSON — on
	// clean runs, so clean reports are byte-identical to older ones).
	FaultDeferred  uint64 `json:"fault_deferred,omitempty"`
	FaultStallHits uint64 `json:"fault_stall_hits,omitempty"`
	// Instructions is each core's retired instruction count (absent on a
	// NewCluster-built machine, which has no cores).
	Instructions []uint64 `json:"instructions,omitempty"`
}

// Counters returns the machine's aggregate counters. Issued, Completed,
// Remote and Stalls count open-loop generator traffic only; Instructions
// counts core retirement only.
func (s *System) Counters() ClusterCounters {
	out := ClusterCounters{Cycles: s.now, Tenants: len(s.cores) + len(s.tenants) + len(s.gens), FaultDeferred: s.faultDeferred}
	for _, c := range s.cores {
		out.Instructions = append(out.Instructions, c.Stats().Instructions)
	}
	for _, g := range s.gens {
		out.Issued += g.Issued
		out.Completed += g.Completed
		out.Remote += g.Remote
		out.Stalls += g.Stalls
	}
	for _, slot := range s.taps {
		out.TapSamples += uint64(slot.tap.Len())
	}
	for _, ch := range s.chans {
		out.ChannelIssued = append(out.ChannelIssued, ch.ctrl.Stats().Issued)
		out.FaultStallHits += ch.dev.InjectedStallHits()
		for _, p := range ch.shaped {
			fakes, fwd := p.shaperStats()
			out.ShaperForwarded += fwd
			out.ShaperFakes += fakes
		}
	}
	return out
}
