// Package cpu implements the trace-driven out-of-order core model: a
// ROB-sized instruction window, MSHR-limited outstanding misses and
// dependency-limited memory-level parallelism. It reproduces the property
// the evaluation depends on — IPC falls as memory latency grows and as
// bandwidth shrinks, with a sensitivity set by each workload's miss
// density and dependency structure (see DESIGN.md for the gem5
// substitution rationale).
package cpu

import (
	"fmt"

	"dagguise/internal/cache"
	"dagguise/internal/config"
	"dagguise/internal/mem"
	"dagguise/internal/obs"
	"dagguise/internal/trace"
)

// Port accepts memory requests from a core: either the memory controller's
// transaction queue directly (unprotected domains) or a DAGguise/Camouflage
// shaper's private queue (protected domains).
type Port interface {
	TryEnqueue(req mem.Request, now uint64) bool
	// Room reports whether TryEnqueue would accept a request at now. Only
	// the core's own enqueues take room away before the memory side
	// steps, so a core may read it at its turn in place of an offer.
	Room(now uint64) bool
}

// IDAlloc returns unique request IDs; all producers in a simulation share
// one allocator.
type IDAlloc func() uint64

type opStatus int

const (
	stWaitDep opStatus = iota
	stReady
	stInMem
	stDone
)

type slot struct {
	op         trace.Op
	seq        uint64
	status     opStatus
	completion uint64
	reqID      uint64
	gapLeft    int
}

// Stats aggregates core counters.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	MemOps       uint64
	MemReads     uint64 // demand reads issued to memory (LLC misses)
	Prefetches   uint64 // prefetch reads issued to memory
	Writebacks   uint64
	StallCycles  uint64 // cycles with zero retirement
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Core is one trace-driven core.
type Core struct {
	domain mem.Domain
	src    trace.Source
	hier   *cache.Hierarchy
	cfg    config.CoreConfig
	port   Port
	alloc  IDAlloc

	window    []slot
	buf       []slot // window's backing array from its first element
	baseSeq   uint64 // seq of window[0]
	nextSeq   uint64
	instCount int // instructions represented in the window

	outstanding int
	reads       map[uint64]uint64 // reqID -> seq
	wbQueue     []uint64

	pf          *prefetcher
	pfPending   []uint64          // prefetch lines awaiting a free slot/port
	fillPending []uint64          // store-miss fill lines (write-allocate)
	pfInMem     map[uint64]uint64 // reqID -> line address
	pfIssued    map[uint64]bool   // lines with an in-flight prefetch/fill

	exhausted bool
	stats     Stats

	// Park state, derived and never serialized (RestoreState clears it).
	// A full tick that changes nothing but Cycles and StallCycles parks
	// the core: until a response arrives, the port has room for the
	// refused offers or the window head's completion cycle comes, every
	// tick would repeat it exactly, so Tick replays it in O(1). A full
	// tick whose only change is retiring a whole issue width of the
	// head's gap parks it retiring: the replays retire the gap until
	// less than an issue width of it is left.
	busy     bool   // the full tick in progress changed core state
	parked   bool   // the last full tick changed nothing but the head's gap
	retiring bool   // that tick retired IssueWidth gap instructions
	refused  int    // offers that tick made, each refused after drawing an ID
	wakeAt   uint64 // the first cycle a replay would differ, or ^0 when none is due

	// Observability (nil = off); measurement only.
	mx *obs.Registry
}

// New builds a core for the domain reading ops from src through the given
// cache hierarchy, sending misses to port.
func New(domain mem.Domain, src trace.Source, hier *cache.Hierarchy, cfg config.CoreConfig, port Port, alloc IDAlloc) *Core {
	return &Core{
		domain:   domain,
		src:      src,
		hier:     hier,
		cfg:      cfg,
		port:     port,
		alloc:    alloc,
		reads:    make(map[uint64]uint64),
		pf:       newPrefetcher(cfg.PrefetchDepth, cfg.PrefetchStreams),
		pfInMem:  make(map[uint64]uint64),
		pfIssued: make(map[uint64]bool),
	}
}

// Domain returns the core's security domain.
func (c *Core) Domain() mem.Domain { return c.domain }

// Observe attaches an observability registry (nil = off). Measurement
// only: the core's timing never consults it.
func (c *Core) Observe(mx *obs.Registry) { c.mx = mx }

// Stats returns the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Hierarchy exposes the core's caches (for workload calibration).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Done reports whether a finite trace has fully retired.
func (c *Core) Done() bool { return c.exhausted && len(c.window) == 0 }

// depSatisfied reports whether the op's dependency has completed.
func (c *Core) depSatisfied(s *slot) bool {
	if s.op.Dep <= 0 {
		return true
	}
	depSeq := s.seq - uint64(s.op.Dep)
	if s.seq < uint64(s.op.Dep) || depSeq < c.baseSeq {
		return true // dependency already retired
	}
	dep := &c.window[depSeq-c.baseSeq]
	return dep.status == stDone
}

// Tick advances the core one cycle.
func (c *Core) Tick(now uint64) {
	c.stats.Cycles++
	c.mx.Observe(obs.HistMLP, int(c.domain), uint64(c.outstanding))
	if now < c.WakeAt(now) {
		// Request IDs come from the machine-wide allocator in core order,
		// so the replay draws one per refused offer. SkipParked is the
		// same replay for k cycles, kept out of this path so that a
		// parked tick costs no call.
		for i := 0; i < c.refused; i++ {
			c.alloc()
		}
		if c.retiring {
			w := c.cfg.IssueWidth
			c.window[0].gapLeft -= w
			c.stats.Instructions += uint64(w)
			c.mx.Add(obs.CtrRetired, int(c.domain), uint64(w))
			return
		}
		c.stats.StallCycles++
		c.mx.Inc(obs.CtrROBStallCycles, int(c.domain))
		return
	}
	c.busy, c.refused = false, 0
	c.fill()
	c.issue(now)
	c.issuePrefetches(now)
	c.flushWritebacks(now)
	// Nothing but retirement changed, and the head's gap fills the whole
	// issue width: the next ticks retire the gap alike. A zero issue
	// width retires nothing, so such a core parks stalled instead.
	w := c.cfg.IssueWidth
	c.retiring = !c.busy && w > 0 && len(c.window) > 0 && c.window[0].gapLeft >= w
	c.retire(now)
	c.parked, c.wakeAt = !c.busy || c.retiring, ^uint64(0)
	switch {
	case c.retiring:
		c.wakeAt = now + 1 + uint64(c.window[0].gapLeft/w)
	case c.parked && len(c.window) > 0 && c.window[0].status == stDone:
		c.wakeAt = c.window[0].completion
	}
}

// WakeAt returns a lower bound on the first cycle at or after now at which
// Tick does more than replay a parked tick: now unless the core is parked
// and its port refuses the refused offers again, else the first cycle at
// which less than an issue width of the head's gap is left (retiring) or
// the window head's completion cycle (^0 when none is due). Only a
// response or port room, which only the memory side's events change, can
// make it earlier.
func (c *Core) WakeAt(now uint64) uint64 {
	if !c.parked || (c.refused > 0 && c.port.Room(now)) {
		return now
	}
	return c.wakeAt
}

// SkipParked replays k parked ticks, the cycles before WakeAt, at once:
// what Tick's parked path does k times, except that it returns the
// request IDs those ticks draw, one per refused offer per cycle, for the
// caller to draw in bulk from the shared allocator. No other producer
// draws during such cycles, so the order cannot matter. retired reports
// whether the ticks retired instructions, which a retiring core does on
// every one of them.
func (c *Core) SkipParked(k uint64) (ids uint64, retired bool) {
	c.stats.Cycles += k
	c.mx.ObserveN(obs.HistMLP, int(c.domain), uint64(c.outstanding), k)
	if c.retiring {
		n := k * uint64(c.cfg.IssueWidth)
		c.window[0].gapLeft -= int(n)
		c.stats.Instructions += n
		c.mx.Add(obs.CtrRetired, int(c.domain), n)
	} else {
		c.stats.StallCycles += k
		c.mx.Add(obs.CtrROBStallCycles, int(c.domain), k)
	}
	return k * uint64(c.refused), c.retiring
}

// offer hands req to the port, recording whether the tick changed state
// or made one more refused offer.
func (c *Core) offer(req mem.Request, now uint64) bool {
	if c.port.TryEnqueue(req, now) {
		c.busy = true
		return true
	}
	c.refused++
	return false
}

// issuePrefetches drains pending store-fill and prefetch lines through the
// port, bounded by a private outstanding budget so they never steal demand
// MSHRs. Store fills skip the cache-presence filter: their line was
// functionally allocated at store time, but the bus transfer still happens.
func (c *Core) issuePrefetches(now uint64) {
	budget := 2 * c.cfg.PrefetchDepth
	if budget < 4 {
		budget = 4
	}
	trySend := func(line uint64) bool {
		id := c.alloc()
		req := mem.Request{ID: id, Addr: line * 64, Kind: mem.Read, Domain: c.domain, Issue: now, Prefetch: true}
		if !c.offer(req, now) {
			return false
		}
		c.pfIssued[line] = true
		c.pfInMem[id] = line * 64
		c.stats.Prefetches++
		return true
	}
	for len(c.fillPending) > 0 && len(c.pfInMem) < budget {
		line := c.fillPending[0]
		if c.pfIssued[line] {
			c.fillPending = c.fillPending[1:]
			c.busy = true
			continue
		}
		if !trySend(line) {
			return
		}
		c.fillPending = c.fillPending[1:]
	}
	for len(c.pfPending) > 0 && len(c.pfInMem) < budget {
		line := c.pfPending[0]
		if c.pfIssued[line] || c.hier.Contains(line*64) {
			c.pfPending = c.pfPending[1:]
			c.busy = true
			continue
		}
		if !trySend(line) {
			return
		}
		c.pfPending = c.pfPending[1:]
	}
}

func (c *Core) fill() {
	for !c.exhausted && c.instCount < c.cfg.ROBEntries {
		c.busy = true
		op, ok := c.src.Next()
		if !ok {
			c.exhausted = true
			return
		}
		c.push(slot{op: op, seq: c.nextSeq, status: stWaitDep, gapLeft: op.Gap})
		c.nextSeq++
		c.instCount += op.Gap + 1
	}
}

// push appends s to the window. Retirement advances the window through
// its backing array, so when the window reaches the array's end and fills
// at most half of it, push moves it back to the front instead of letting
// append copy it into a fresh array. Each move copies at most half the
// array and follows at least as many retirements, so the window stops
// allocating once the array is twice its longest length.
func (c *Core) push(s slot) {
	if len(c.window) == cap(c.window) && 2*len(c.window) <= cap(c.buf) {
		c.window = append(c.buf[:0], c.window...)
	}
	c.window = append(c.window, s)
	if cap(c.window) > cap(c.buf) {
		c.buf = c.window[:0]
	}
}

func (c *Core) issue(now uint64) {
	for i := range c.window {
		s := &c.window[i]
		switch s.status {
		case stWaitDep:
			if !c.depSatisfied(s) {
				continue
			}
			s.status = stReady
			c.busy = true
			fallthrough
		case stReady:
			c.access(s, now)
		}
	}
}

// needsMemSentinel marks a slot whose cache access already ran (and
// missed) but whose timing request was rejected by a full port; the retry
// must not repeat the functional access, which would now hit.
const needsMemSentinel = ^uint64(0)

// access performs the cache access for a ready op and transitions it.
func (c *Core) access(s *slot, now uint64) {
	if s.op.Kind == mem.Write {
		// Stores retire through the store buffer: account the cache
		// effects (allocation + dirty evictions) but never stall. A
		// store miss still fetches its line (write-allocate) as a
		// non-blocking fill read through the prefetch engine.
		c.busy = true
		res := c.hier.Access(s.op.Addr, true)
		c.wbQueue = append(c.wbQueue, res.Writebacks...)
		if c.pf != nil && res.Level >= 2 {
			c.pfPending = append(c.pfPending, c.pf.onMiss(s.op.Addr/64)...)
		}
		if res.MissToMem {
			c.fillPending = append(c.fillPending, s.op.Addr/64)
		}
		s.status = stDone
		s.completion = now
		return
	}
	// Loads that need memory must claim an MSHR and a queue slot; stay
	// Ready and retry next cycle when either is unavailable.
	if c.outstanding >= c.cfg.MSHRs {
		return
	}
	if s.reqID != needsMemSentinel {
		c.busy = true
		res := c.hier.Access(s.op.Addr, false)
		c.wbQueue = append(c.wbQueue, res.Writebacks...)
		// Train the stream prefetcher on every L1 miss — including hits
		// on previously prefetched lines in L2/L3, otherwise a covered
		// stream would stop advancing and stall itself.
		if c.pf != nil && res.Level >= 2 {
			c.pfPending = append(c.pfPending, c.pf.onMiss(s.op.Addr/64)...)
		}
		if !res.MissToMem {
			s.status = stDone
			s.completion = now + res.Latency
			return
		}
		s.reqID = needsMemSentinel
	}
	id := c.alloc()
	req := mem.Request{ID: id, Addr: s.op.Addr, Kind: mem.Read, Domain: c.domain, Issue: now}
	if !c.offer(req, now) {
		return // port full: retry next cycle without re-accessing caches
	}
	s.status = stInMem
	s.reqID = id
	c.reads[id] = s.seq
	c.outstanding++
	c.stats.MemReads++
}

func (c *Core) flushWritebacks(now uint64) {
	for len(c.wbQueue) > 0 {
		req := mem.Request{ID: c.alloc(), Addr: c.wbQueue[0], Kind: mem.Write, Domain: c.domain, Issue: now}
		if !c.offer(req, now) {
			return
		}
		c.wbQueue = c.wbQueue[1:]
		c.stats.Writebacks++
	}
}

func (c *Core) retire(now uint64) {
	budget := c.cfg.IssueWidth
	retired := 0
	for budget > 0 && len(c.window) > 0 {
		head := &c.window[0]
		if head.gapLeft > 0 {
			n := head.gapLeft
			if n > budget {
				n = budget
			}
			head.gapLeft -= n
			budget -= n
			retired += n
			continue
		}
		if head.status != stDone || head.completion > now {
			break
		}
		budget--
		retired++
		c.stats.MemOps++
		c.instCount -= head.op.Gap + 1
		c.window = c.window[1:]
		c.baseSeq++
	}
	c.stats.Instructions += uint64(retired)
	if retired == 0 {
		c.stats.StallCycles++
		c.mx.Inc(obs.CtrROBStallCycles, int(c.domain))
	} else {
		c.busy = true
		c.mx.Add(obs.CtrRetired, int(c.domain), uint64(retired))
	}
}

// RetiredResponseError reports a memory completion for an instruction that
// already retired — a protocol violation: the core never retires a load
// before its response arrives, so a late duplicate or corrupted response ID
// is the only way here.
type RetiredResponseError struct {
	// Domain is the core's security domain, ID the response's request ID.
	Domain mem.Domain
	ID     uint64
	// Seq is the retired instruction sequence number, Base the oldest
	// in-window sequence at the time of the violation.
	Seq, Base uint64
}

// Error implements error.
func (e *RetiredResponseError) Error() string {
	return fmt.Sprintf("cpu: domain %d response %d for retired op seq %d (base %d)", e.Domain, e.ID, e.Seq, e.Base)
}

// OnResponse delivers a memory read completion to the core. Prefetch
// completions fill L2/L3; unknown IDs (e.g. write completions, which the
// core does not track) are ignored. A response for an already-retired
// instruction is a protocol violation reported as *RetiredResponseError.
func (c *Core) OnResponse(resp mem.Response, now uint64) error {
	c.parked = false
	if addr, ok := c.pfInMem[resp.ID]; ok {
		delete(c.pfInMem, resp.ID)
		delete(c.pfIssued, addr/64)
		c.wbQueue = append(c.wbQueue, c.hier.PrefetchFill(addr)...)
		return nil
	}
	seq, ok := c.reads[resp.ID]
	if !ok {
		return nil
	}
	delete(c.reads, resp.ID)
	if seq < c.baseSeq {
		return &RetiredResponseError{Domain: c.domain, ID: resp.ID, Seq: seq, Base: c.baseSeq}
	}
	s := &c.window[seq-c.baseSeq]
	s.status = stDone
	s.completion = now
	c.outstanding--
	return nil
}

// Outstanding returns in-flight memory reads.
func (c *Core) Outstanding() int { return c.outstanding }
