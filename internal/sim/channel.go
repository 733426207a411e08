package sim

import (
	"fmt"

	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/obs"
	"dagguise/internal/shaper"
)

// channel is one memory channel unit: an address mapper, a DRAM device, a
// controller, and one port per domain.
type channel struct {
	index  int
	mapper *mem.Mapper
	dev    *dram.Device
	ctrl   *memctrl.Controller
	ports  []*port // indexed by domain-1
	shaped []*port // the ports with a shaper, in service order
	// deferred holds responses withheld by RespDelay/RespDrop faults. The
	// slice stays insertion-ordered, so redelivery order is deterministic:
	// by due cycle, ties broken by original completion order.
	deferred []DeferredResponse
}

// DeferredResponse is one response withheld by a RespDelay/RespDrop
// fault, redelivered at cycle Until.
type DeferredResponse struct {
	Until uint64       `json:"until"`
	Resp  mem.Response `json:"resp"`
}

// port is one domain's entry into a channel: a DAGguise request shaper, a
// Camouflage distribution shaper, or (both nil) straight into the
// controller. A shaper port stages its emissions in its own egress queue.
type port struct {
	s      *System
	ctrl   *memctrl.Controller
	dom    mem.Domain
	dag    *shaper.Shaper
	camo   *camouflage.Shaper
	egress []mem.Request
	hw     int // egress depth high-water mark
}

// addChannel builds a channel unit with a direct port for each of the
// system's domains and appends it to the system. partition > 0 partitions
// the transaction queue per domain.
func (s *System) addChannel(index int, geo mem.Geometry, timing config.DRAMTiming, closedRow bool,
	policy memctrl.Scheduler, capacity, partition, domains int) (*channel, error) {
	mapper, err := mem.NewMapper(geo)
	if err != nil {
		return nil, err
	}
	dev := dram.New(timing, mapper, closedRow)
	ch := &channel{index: index, mapper: mapper, dev: dev, ctrl: memctrl.New(dev, mapper, policy, capacity)}
	if partition > 0 {
		ch.ctrl.PartitionQueue(partition)
	}
	for i := 0; i < domains; i++ {
		ch.ports = append(ch.ports, &port{s: s, ctrl: ch.ctrl, dom: domainOf(i)})
	}
	s.chans = append(s.chans, ch)
	return ch, nil
}

// shape puts a DAGguise or Camouflage shaper in front of p.
func (ch *channel) shape(p *port, dag *shaper.Shaper, camo *camouflage.Shaper) {
	p.dag, p.camo = dag, camo
	ch.shaped = append(ch.shaped, p)
}

// Room reports whether TryEnqueue would accept the domain's request at
// now. A fault-injected backpressure burst makes a shaper port reject
// enqueues exactly like a full private queue; the rejection is keyed on
// (domain, cycle) only and is therefore secret-independent.
func (p *port) Room(now uint64) bool {
	switch {
	case p.dag == nil && p.camo == nil:
		return p.ctrl.Room(p.dom)
	case p.s.faults != nil && p.s.faults.ShaperRejects(p.dom, now):
		return false
	case p.dag != nil:
		return !p.dag.Full()
	default:
		return !p.camo.Full()
	}
}

// TryEnqueue hands a tenant's request to the port, refusing exactly when
// Room is false. Routing violations are stashed on the System for the
// current tick to surface as a protocol SimError.
func (p *port) TryEnqueue(req mem.Request, now uint64) bool {
	if p.dag == nil && p.camo == nil {
		return p.ctrl.Enqueue(req, now)
	}
	if !p.Room(now) {
		return false
	}
	var ok bool
	var err error
	if p.dag != nil {
		ok, err = p.dag.Enqueue(req, now)
	} else {
		ok, err = p.camo.Enqueue(req, now)
	}
	if err != nil && p.s.portErr == nil {
		p.s.portErr = err
	}
	return ok
}

// shaperStats returns the port's shaper fake and forwarded counts (zero
// for a direct port).
func (p *port) shaperStats() (fakes, forwarded uint64) {
	switch {
	case p.dag != nil:
		st := p.dag.Stats()
		return st.Fakes, st.Forwarded
	case p.camo != nil:
		st := p.camo.Stats()
		return st.Fakes, st.Forwarded
	}
	return 0, 0
}

// idle reports whether the channel holds no queued, staged, in-flight or
// withheld request.
func (ch *channel) idle() bool {
	if !ch.ctrl.Idle() || len(ch.deferred) > 0 {
		return false
	}
	for _, p := range ch.shaped {
		if len(p.egress) > 0 {
			return false
		}
	}
	return true
}

// tickPort steps one shaper port: the shaper ticks, its emissions join
// the egress queue, and the queue drains into the controller until the
// controller refuses.
func (s *System) tickPort(ch *channel, p *port, now uint64) error {
	var emitted []mem.Request
	if p.dag != nil {
		emitted = p.dag.Tick(now)
		s.prof.Lap(obs.PBShaper)
	} else {
		emitted = p.camo.Tick(now)
		s.prof.Lap(obs.PBCamouflage)
	}
	if len(emitted) == 0 && len(p.egress) == 0 {
		// Nothing to stage or drain: only the occupancy sample of the
		// empty queue remains.
		s.mx.Observe(obs.HistEgressQueue, int(p.dom), 0)
		s.prof.Lap(obs.PBEgress)
		return nil
	}
	if s.traceOn {
		for _, req := range emitted {
			s.traces[p.dom] = append(s.traces[p.dom], EgressEvent{
				Cycle: now,
				Bank:  ch.mapper.FlatBank(ch.mapper.Decode(req.Addr)),
				Kind:  req.Kind,
			})
		}
	}
	q := append(p.egress, emitted...)
	// The high-water mark records peak staging occupancy, so it must be
	// sampled before the drain: post-drain the queue is empty whenever
	// the controller keeps up, and the mark would stay zero on every
	// healthy run.
	if len(q) > p.hw {
		p.hw = len(q)
	}
	s.mx.Observe(obs.HistEgressQueue, int(p.dom), uint64(len(q)))
	// Drain into the controller through an index cursor and compact with
	// copy: the former q = q[1:] loop kept the consumed prefix of the
	// backing array reachable forever. An egress-stall fault blocks only
	// its own domain's queue.
	n := 0
	stalled := s.faults != nil && s.faults.EgressStalled(p.dom, now)
	if stalled && len(q) > 0 {
		s.tr.Emit(obs.Event{Cycle: now, Comp: obs.CompSystem, Kind: obs.EvEgressStall, Index: int32(p.dom), Domain: int32(p.dom)})
	}
	if !stalled {
		for n < len(q) && ch.ctrl.Enqueue(q[n], now) {
			n++
		}
	}
	if n > 0 {
		rest := copy(q, q[n:])
		q = q[:rest]
	}
	p.egress = q
	if s.wd.EgressHighWater > 0 && len(q) > s.wd.EgressHighWater {
		return s.errf(InvariantLivelock, p.dom, nil,
			"egress queue depth %d exceeds high-water mark %d", len(q), s.wd.EgressHighWater)
	}
	s.prof.Lap(obs.PBEgress)
	return nil
}

// deferResponses is the fault layer on the controller→tenant boundary:
// it withholds the responses a delay/drop window covers and appends the
// withheld ones that are due, after the fresh responses. Both decisions
// are keyed on (domain, cycle) only. It filters resps in place: that is
// the controller's Tick buffer, which the next Tick refills from empty.
func (s *System) deferResponses(ch *channel, resps []mem.Response, now uint64) []mem.Response {
	if s.faults != nil {
		kept := resps[:0]
		for _, r := range resps {
			if until, held := s.faults.DeferResponse(r.Domain, now); held {
				ch.deferred = append(ch.deferred, DeferredResponse{Until: until, Resp: r})
				s.faultDeferred++
			} else {
				kept = append(kept, r)
			}
		}
		resps = kept
	}
	if len(ch.deferred) > 0 {
		rest := ch.deferred[:0]
		for _, d := range ch.deferred {
			if d.Until <= now {
				resps = append(resps, d.Resp)
			} else {
				rest = append(rest, d)
			}
		}
		ch.deferred = rest
	}
	return resps
}

// deliver routes one response to its domain. The audit tap sees it first:
// the controller's response stream, fakes included, is the externally
// visible completion timing, and recording it is measurement only. The
// domain's shaper then swallows fakes and the tenant gets the rest.
func (s *System) deliver(ch *channel, resp mem.Response, now uint64) error {
	i := int(resp.Domain) - 1
	if i < 0 || i >= len(ch.ports) {
		return fmt.Errorf("sim: response %d for unknown domain %d", resp.ID, resp.Domain)
	}
	if slot := &s.taps[resp.Domain]; slot.tap != nil {
		slot.tap.Record(now, now-slot.last)
		slot.last = now
	}
	p := ch.ports[i]
	if p.dag != nil {
		real, err := p.dag.OnResponse(resp, now)
		if err != nil || !real {
			return err
		}
	} else if p.camo != nil && !p.camo.OnResponse(resp, now) {
		return nil
	}
	switch {
	case i < len(s.cores):
		return s.cores[i].OnResponse(resp, now)
	case i < len(s.tenants):
		t := &s.tenants[i]
		var stop bool
		t.next, stop = t.OnResponse(resp, now)
		s.tenantWake = min(s.tenantWake, t.next)
		if stop {
			s.stopAsked = true
		}
	default:
		// A completion that takes a generator below the outstanding
		// limit makes it eligible again.
		g := s.gens[i]
		full := g.Outstanding >= clusterMaxOutstanding
		g.complete()
		if full && g.Pending == nil && g.Outstanding < clusterMaxOutstanding {
			s.genQ.push(g)
			s.genWake = min(s.genWake, g.NextAt)
		}
	}
	return nil
}
