// Package shaper implements the DAGguise request shaper (§4.4): a proxy
// agent placed between the last-level cache and the memory controller that
// re-times a protected domain's memory requests to follow a
// secret-independent defense rDAG.
//
// The shaper buffers the domain's real requests in a private transaction
// queue. Whenever the defense rDAG prescribes a request (a bank ID and a
// read/write tag whose timing dependencies are satisfied), the shaper
// forwards a matching buffered request if one exists, and otherwise emits a
// fake request to a pseudo-random address in the prescribed bank. The
// stream leaving the shaper therefore depends only on the defense rDAG and
// on the completion times of the shaper's own requests — never on the
// victim's access pattern.
package shaper

import (
	"fmt"

	"dagguise/internal/mem"
	"dagguise/internal/obs"
	"dagguise/internal/rdag"
	"dagguise/internal/rng"
)

// IDAlloc returns fresh request IDs for fake requests. Simulations share
// one allocator across producers so IDs stay unique.
type IDAlloc func() uint64

// Stats aggregates shaper counters.
type Stats struct {
	// Forwarded counts real requests emitted downstream.
	Forwarded uint64
	// Fakes counts decoy requests emitted downstream.
	Fakes uint64
	// Enqueued counts real requests accepted into the private queue.
	Enqueued uint64
	// Rejected counts Enqueue attempts that found the queue full.
	Rejected uint64
	// DelaySum accumulates, over forwarded requests, the cycles spent
	// waiting in the private queue.
	DelaySum uint64
	// MaxQueue is the private queue's high-water mark.
	MaxQueue int
}

type pending struct {
	req      mem.Request
	bank     int
	enqueued uint64
}

// Shaper shapes one security domain's traffic to one defense rDAG.
type Shaper struct {
	domain   mem.Domain
	driver   rdag.Driver
	mapper   *mem.Mapper
	capacity int
	alloc    IDAlloc
	rng      *rng.Rand

	queue  []pending
	tokens map[uint64]int // emitted request ID -> driver token
	out    []mem.Request  // Tick's result, reused
	stats  Stats

	// Observability (nil = off). emitAt tracks emission cycles per
	// request ID for the rDAG node-wait histogram; it is only populated
	// while a registry is attached.
	mx     *obs.Registry
	tr     *obs.Tracer
	emitAt map[uint64]uint64

	rows    uint64
	columns int

	// lastRow tracks the row this shaper last opened per flat bank, for
	// the row-buffer-aware extension (§4.4): RowHitSlot must reuse it,
	// RowMissSlot must avoid it.
	lastRow map[int]uint64
}

// New builds a shaper for domain over the given defense-rDAG driver.
// capacity is the private transaction queue depth (8 entries in the
// paper's hardware evaluation). seed fixes the fake-address stream.
func New(domain mem.Domain, driver rdag.Driver, mapper *mem.Mapper, capacity int, alloc IDAlloc, seed int64) *Shaper {
	if capacity <= 0 {
		capacity = 8
	}
	geo := mapper.Geometry()
	linesPerRow := geo.RowBytes / geo.LineBytes
	// Fake requests land in a dedicated high row region so they never
	// alias application data in simulation traces.
	return &Shaper{
		domain:   domain,
		driver:   driver,
		mapper:   mapper,
		capacity: capacity,
		alloc:    alloc,
		rng:      rng.New(seed),
		tokens:   make(map[uint64]int),
		rows:     1 << 14,
		columns:  linesPerRow,
		lastRow:  make(map[int]uint64),
	}
}

// Domain returns the protected security domain.
func (s *Shaper) Domain() mem.Domain { return s.domain }

// Observe attaches an observability registry and tracer (either may be
// nil). Measurement only: the shaping decisions never consult them, so
// the emitted stream is bit-identical with and without observability.
func (s *Shaper) Observe(mx *obs.Registry, tr *obs.Tracer) {
	s.mx = mx
	s.tr = tr
	if mx != nil && s.emitAt == nil {
		s.emitAt = make(map[uint64]uint64)
	}
}

// Driver returns the defense-rDAG driver in use.
func (s *Shaper) Driver() rdag.Driver { return s.driver }

// QueueLen returns the private queue occupancy.
func (s *Shaper) QueueLen() int { return len(s.queue) }

// Full reports whether the private queue is at capacity; the producer must
// stall until space frees. A full queue leaks nothing: it is private to
// the domain and backpressure is invisible to other domains.
func (s *Shaper) Full() bool { return len(s.queue) >= s.capacity }

// Enqueue accepts a real request from the domain's LLC. It returns
// (false, nil) if the private queue is full — ordinary backpressure the
// producer retries — and a *RoutingError if the request belongs to another
// domain, a wiring violation the caller must surface.
func (s *Shaper) Enqueue(req mem.Request, now uint64) (bool, error) {
	if req.Domain != s.domain {
		return false, &RoutingError{Got: req.Domain, Want: s.domain, ID: req.ID}
	}
	if len(s.queue) >= s.capacity {
		s.stats.Rejected++
		s.mx.Inc(obs.CtrShaperRejected, int(s.domain))
		return false, nil
	}
	bank := s.mapper.FlatBank(s.mapper.Decode(req.Addr))
	s.queue = append(s.queue, pending{req: req, bank: bank, enqueued: now})
	s.stats.Enqueued++
	if len(s.queue) > s.stats.MaxQueue {
		s.stats.MaxQueue = len(s.queue)
	}
	return true, nil
}

// Tick polls the defense rDAG and returns the requests (real or fake) to
// forward to the global transaction queue this cycle. The slice is the
// shaper's own and stays valid until the next Tick; a tick that emits
// nothing returns nil.
func (s *Shaper) Tick(now uint64) []mem.Request {
	s.mx.Observe(obs.HistShaperQueue, int(s.domain), uint64(len(s.queue)))
	slots := s.driver.Poll(now)
	if len(slots) == 0 {
		return nil
	}
	out := s.out[:0]
	for _, slot := range slots {
		req, real := s.match(slot)
		if !real {
			req = s.fake(slot, now)
			s.stats.Fakes++
			s.mx.Inc(obs.CtrShaperFakes, int(s.domain))
			s.tr.Emit(obs.Event{Cycle: now, Comp: obs.CompShaper, Kind: obs.EvFake, Index: int32(s.domain), Domain: int32(s.domain)})
		} else {
			s.stats.Forwarded++
			s.stats.DelaySum += now - req.Issue
			s.mx.Inc(obs.CtrShaperForwarded, int(s.domain))
			s.tr.Emit(obs.Event{Cycle: now, Comp: obs.CompShaper, Kind: obs.EvReal, Index: int32(s.domain), Domain: int32(s.domain)})
		}
		if s.mx != nil {
			s.emitAt[req.ID] = now
		}
		s.lastRow[slot.Bank] = s.mapper.Decode(req.Addr).Row
		req.Issue = now
		// Strip the prefetch hint: every shaper emission must look
		// identical to the controller, or the demand/prefetch mix of the
		// victim would leak through scheduling priority.
		req.Prefetch = false
		s.tokens[req.ID] = slot.Token
		out = append(out, req)
	}
	s.out = out
	return out
}

// NextEmit returns the earliest cycle at which Tick could emit: the
// driver's next due slot. Every earlier Tick only samples the private
// queue's occupancy, which SkipTicks replays. A response can move it
// earlier.
func (s *Shaper) NextEmit() uint64 { return s.driver.NextPoll() }

// SkipTicks replays k ticks before NextEmit at once.
func (s *Shaper) SkipTicks(k uint64) {
	s.mx.ObserveN(obs.HistShaperQueue, int(s.domain), uint64(len(s.queue)), k)
}

// rowOK checks a pending request against the slot's row relation, using
// the row this shaper last opened in the slot's bank.
func (s *Shaper) rowOK(slot rdag.Slot, row uint64) bool {
	switch slot.Row {
	case rdag.RowHitSlot:
		last, ok := s.lastRow[slot.Bank]
		return ok && row == last
	case rdag.RowMissSlot:
		last, ok := s.lastRow[slot.Bank]
		return !ok || row != last
	default:
		return true
	}
}

// match searches the private queue (oldest first) for a real request with
// the slot's bank, kind and row relation, removing and returning it. For
// row-miss slots it prefers the candidate whose row has the most queued
// requests behind it, so that subsequent row-hit slots can forward them —
// a selection that depends only on the private queue, never observable
// downstream.
func (s *Shaper) match(slot rdag.Slot) (mem.Request, bool) {
	best := -1
	bestRun := -1
	for i := range s.queue {
		p := s.queue[i]
		if p.bank != slot.Bank || p.req.Kind != slot.Kind {
			continue
		}
		row := s.mapper.Decode(p.req.Addr).Row
		if !s.rowOK(slot, row) {
			continue
		}
		if slot.Row != rdag.RowMissSlot {
			best = i
			break // oldest match
		}
		run := 0
		for j := range s.queue {
			if s.queue[j].bank == slot.Bank && s.mapper.Decode(s.queue[j].req.Addr).Row == row {
				run++
			}
		}
		if run > bestRun {
			bestRun = run
			best = i
		}
	}
	if best < 0 {
		return mem.Request{}, false
	}
	req := s.queue[best].req
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	return req, true
}

// fake builds a decoy request to the prescribed bank honouring the slot's
// row relation: a RowHitSlot fake reuses the bank's open row, a
// RowMissSlot fake picks a fresh one. The address stream is independent of
// the victim's data.
func (s *Shaper) fake(slot rdag.Slot, now uint64) mem.Request {
	var row uint64
	last, seen := s.lastRow[slot.Bank]
	if slot.Row == rdag.RowHitSlot && seen {
		row = last
	} else {
		row = uint64(s.rng.Int63n(int64(s.rows)))
		if slot.Row == rdag.RowMissSlot && seen && row == last {
			row = (row + 1) % s.rows
		}
	}
	col := s.rng.Intn(s.columns)
	return mem.Request{
		ID:     s.alloc(),
		Addr:   s.mapper.AddrForBank(slot.Bank, row, col),
		Kind:   slot.Kind,
		Domain: s.domain,
		Fake:   true,
		Issue:  now,
	}
}

// OnResponse handles a completion from the memory controller for a request
// this shaper emitted. It advances the defense rDAG and reports whether
// the response should be delivered to the core (fake responses are
// swallowed). A response for an ID the shaper never emitted is a protocol
// violation reported as *UnknownResponseError: routing must be exact.
func (s *Shaper) OnResponse(resp mem.Response, now uint64) (bool, error) {
	token, ok := s.tokens[resp.ID]
	if !ok {
		return false, &UnknownResponseError{Domain: s.domain, ID: resp.ID}
	}
	delete(s.tokens, resp.ID)
	s.driver.Complete(token, now)
	if s.mx != nil {
		if at, ok := s.emitAt[resp.ID]; ok {
			delete(s.emitAt, resp.ID)
			s.mx.Observe(obs.HistNodeWait, int(s.domain), now-at)
		}
	}
	return !resp.Fake, nil
}

// Outstanding returns the number of shaper-emitted requests currently in
// the memory system.
func (s *Shaper) Outstanding() int { return len(s.tokens) }

// Stats returns cumulative counters.
func (s *Shaper) Stats() Stats { return s.stats }

// Reset clears the shaper and its driver. Pending private-queue entries
// and in-flight token mappings are dropped, so only call this between
// simulations.
func (s *Shaper) Reset() {
	s.queue = s.queue[:0]
	s.tokens = make(map[uint64]int)
	s.lastRow = make(map[int]uint64)
	s.stats = Stats{}
	if s.emitAt != nil {
		s.emitAt = make(map[uint64]uint64)
	}
	s.driver.Reset()
}

// String describes the shaper.
func (s *Shaper) String() string {
	return fmt.Sprintf("shaper{dom=%d cap=%d}", s.domain, s.capacity)
}
