// Package memctrl implements the shared memory controller: a global
// transaction queue in front of the DRAM device, a pluggable scheduling
// policy (FCFS, FR-FCFS, or one of the secure arbiters from
// internal/sched), and the response path back to the cores and shapers.
//
// The controller is the contention point that memory timing side channels
// exploit: requests from different security domains meet in the transaction
// queue, compete for banks and the shared data bus, and their completion
// times depend on each other's presence (Figure 1 of the paper).
package memctrl

import (
	"fmt"
	"math"

	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/obs"
)

// Entry is a queued transaction together with its decoded DRAM coordinate
// and flat bank index (mem.Mapper.FlatBank).
type Entry struct {
	Req      mem.Request
	Coord    mem.Coord
	FlatBank int
}

// Scheduler picks the next transaction to commit to the DRAM device.
// Implementations include the insecure FCFS/FR-FCFS policies in this
// package and the secure FS / FS-BTA / TP arbiters in internal/sched.
type Scheduler interface {
	// Pick returns the index into q of the transaction to issue at cycle
	// now, or -1 if none may issue this cycle. q is the current global
	// transaction queue in arrival order; dev exposes bank/row state.
	Pick(q []Entry, now uint64, dev *dram.Device) int
	// NextPick returns a lower bound on the first cycle at or after now at
	// which Pick could return an entry or change the policy's state, for
	// as long as q and the device stay as they are (returning now is
	// always safe). It stands in for a Pick at now: a policy whose -1
	// picks keep bookkeeping updates it as that Pick would, so the
	// controller calls it only with a non-empty queue, at a cycle it has
	// not ticked yet.
	NextPick(q []Entry, now uint64, dev *dram.Device) uint64
	// Name identifies the policy in stats output.
	Name() string
}

type completion struct {
	at   uint64
	resp mem.Response
}

// completionHeap is a min-heap of in-flight completions by cycle. push
// and pop repeat container/heap's sift-up and sift-down step for step, so
// completions due in the same cycle pop in container/heap's order and a
// checkpoint holds its backing-array order, without boxing an element
// per operation.
type completionHeap []completion

func (h *completionHeap) push(c completion) {
	q := append(*h, c)
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || q[j].at >= q[i].at {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *completionHeap) pop() completion {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].at < q[j].at {
			j = r
		}
		if q[j].at >= q[i].at {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// Stats aggregates controller-level counters.
type Stats struct {
	Issued        uint64
	Reads         uint64
	Writes        uint64
	Fakes         uint64
	TotalLatency  uint64 // sum of (completion - arrival) over real requests
	TotalQueueing uint64 // sum of (issue start - arrival)
	BytesServed   uint64
	MaxQueueLen   int
}

// Controller is the memory controller for one channel group.
type Controller struct {
	dev       *dram.Device
	mapper    *mem.Mapper
	sched     Scheduler
	queue     []Entry
	capacity  int
	domainCap int   // per-domain queue partition; 0 = shared queue
	perDomain []int // queued entries per domain, when partitioned
	inflight  completionHeap
	resps     []mem.Response // Tick's result, reused
	stats     Stats
	byDomain  []uint64 // real bytes served per domain
	lineSize  uint64

	// Observability (nil = off). The controller attributes per-domain
	// DRAM metrics because it is the last point that knows the request's
	// security domain. Measurement only: never consulted by Pick/issue.
	mx    *obs.Registry
	tr    *obs.Tracer
	prof  *obs.CycleProfile
	burst uint64 // cached data-burst length for bus accounting
}

// New builds a controller over the device with the given scheduling policy
// and transaction queue capacity (entries).
func New(dev *dram.Device, mapper *mem.Mapper, sched Scheduler, capacity int) *Controller {
	if capacity <= 0 {
		capacity = 32
	}
	return &Controller{
		dev:      dev,
		mapper:   mapper,
		sched:    sched,
		capacity: capacity,
		lineSize: uint64(mapper.Geometry().LineBytes),
	}
}

// PartitionQueue switches the transaction queue to per-domain accounting:
// each domain may hold at most perDomain entries, independent of other
// domains' occupancy. Secure schemes require this — with a shared queue, a
// victim's bursts back-pressure the attacker's enqueues, leaking timing
// through queue-full signals even under a non-interfering scheduler.
func (c *Controller) PartitionQueue(perDomain int) {
	c.domainCap = perDomain
}

// slot returns domain d's element of a domain-indexed counter slice,
// growing the slice on first use.
func slot[T int | uint64](s *[]T, d mem.Domain) *T {
	if int(d) >= len(*s) {
		*s = append(*s, make([]T, int(d)+1-len(*s))...)
	}
	return &(*s)[d]
}

// Observe attaches an observability registry and tracer (either may be
// nil) to the controller and its device.
func (c *Controller) Observe(mx *obs.Registry, tr *obs.Tracer) {
	c.mx = mx
	c.tr = tr
	c.burst = c.dev.Timing().Burst
	c.dev.Observe(mx, tr)
}

// Profile attaches a cycle-attribution profiler (nil = off). The
// controller laps the shared telescoping clock at its interior section
// boundaries: scheduler picks land in PBSched, device service in
// PBDRAM, and the rest of the controller's tick (queue sampling, stats,
// completion heap, drain) in PBMemctrl.
func (c *Controller) Profile(p *obs.CycleProfile) { c.prof = p }

// Device returns the underlying DRAM model.
func (c *Controller) Device() *dram.Device { return c.dev }

// Mapper returns the address mapper in use.
func (c *Controller) Mapper() *mem.Mapper { return c.mapper }

// Scheduler returns the active scheduling policy.
func (c *Controller) Scheduler() Scheduler { return c.sched }

// QueueLen returns the current global transaction queue occupancy.
func (c *Controller) QueueLen() int { return len(c.queue) }

// Full reports whether the transaction queue is at capacity.
func (c *Controller) Full() bool { return len(c.queue) >= c.capacity }

// InFlight returns the number of committed-but-incomplete transactions.
func (c *Controller) InFlight() int { return len(c.inflight) }

// Idle reports whether the controller has no queued or in-flight work.
func (c *Controller) Idle() bool { return len(c.queue) == 0 && len(c.inflight) == 0 }

// Room reports whether Enqueue would accept a request from domain d: the
// domain's partition, or the shared queue when unpartitioned, has a free
// entry.
func (c *Controller) Room(d mem.Domain) bool {
	if c.domainCap > 0 {
		return int(d) >= len(c.perDomain) || c.perDomain[d] < c.domainCap
	}
	return len(c.queue) < c.capacity
}

// Enqueue inserts a request into the global transaction queue. It returns
// false when the queue is full (the producer must retry later). The
// request's Arrival field is stamped with now.
func (c *Controller) Enqueue(req mem.Request, now uint64) bool {
	if !c.Room(req.Domain) {
		return false
	}
	if c.domainCap > 0 {
		*slot(&c.perDomain, req.Domain)++
	}
	req.Arrival = now
	co := c.mapper.Decode(req.Addr)
	c.queue = append(c.queue, Entry{Req: req, Coord: co, FlatBank: c.mapper.FlatBank(co)})
	if len(c.queue) > c.stats.MaxQueueLen {
		c.stats.MaxQueueLen = len(c.queue)
	}
	return true
}

// Tick advances the controller one cycle: it lets the scheduling policy
// commit at most one transaction to the device and returns all responses
// that complete at or before now. The slice is the controller's own and
// stays valid until the next Tick; a tick that completes nothing returns
// nil.
func (c *Controller) Tick(now uint64) []mem.Response {
	c.mx.Observe(obs.HistQueueDepth, 0, uint64(len(c.queue)))
	if len(c.queue) > 0 {
		c.prof.Lap(obs.PBMemctrl)
		idx := c.sched.Pick(c.queue, now, c.dev)
		c.prof.Lap(obs.PBSched)
		if idx >= 0 {
			c.issue(idx, now)
		}
	}
	var resps []mem.Response
	if len(c.inflight) > 0 && c.inflight[0].at <= now {
		resps = c.drain(now)
	}
	c.prof.Lap(obs.PBMemctrl)
	return resps
}

func (c *Controller) issue(idx int, now uint64) {
	e := c.queue[idx]
	c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
	if c.domainCap > 0 {
		c.perDomain[e.Req.Domain]--
	}
	c.prof.Lap(obs.PBMemctrl)
	res := c.dev.Service(e.Coord, e.Req.Kind, now)
	c.prof.Lap(obs.PBDRAM)
	c.stats.Issued++
	if e.Req.Kind == mem.Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if e.Req.Fake {
		c.stats.Fakes++
	} else {
		c.stats.BytesServed += c.lineSize
		*slot(&c.byDomain, e.Req.Domain) += c.lineSize
		c.stats.TotalLatency += res.DataDone - e.Req.Arrival
		if res.Start > e.Req.Arrival {
			c.stats.TotalQueueing += res.Start - e.Req.Arrival
		}
	}
	if c.mx != nil || c.tr != nil {
		c.record(e, idx, res)
	}
	c.inflight.push(completion{
		at: res.DataDone,
		resp: mem.Response{
			ID: e.Req.ID, Addr: e.Req.Addr, Kind: e.Req.Kind,
			Domain: e.Req.Domain, Fake: e.Req.Fake, Completion: res.DataDone,
		},
	})
}

// record mirrors one issued transaction into the observability layer:
// per-domain row-buffer outcome, issue mix, bus/bank occupancy and
// latency histograms, plus bank- and channel-lane trace events. Called
// only when a registry or tracer is attached.
func (c *Controller) record(e Entry, idx int, res dram.Result) {
	dom := int(e.Req.Domain)
	c.mx.Inc(obs.CtrSchedPicks, 0)
	if idx > 0 {
		c.mx.Inc(obs.CtrSchedReorders, 0)
	}
	var kind obs.EventKind
	switch res.Outcome {
	case dram.RowHit:
		c.mx.Inc(obs.CtrRowHits, dom)
		kind = obs.EvRowHit
	case dram.RowMiss:
		c.mx.Inc(obs.CtrRowMisses, dom)
		kind = obs.EvRowMiss
	default:
		c.mx.Inc(obs.CtrRowConflicts, dom)
		c.mx.Inc(obs.CtrPrecharges, dom)
		kind = obs.EvRowConflict
	}
	if c.dev.ClosedRow() {
		c.mx.Inc(obs.CtrPrecharges, dom)
	}
	switch {
	case e.Req.Fake:
		c.mx.Inc(obs.CtrIssuedFakes, dom)
	case e.Req.Kind == mem.Write:
		c.mx.Inc(obs.CtrIssuedWrites, dom)
	default:
		c.mx.Inc(obs.CtrIssuedReads, dom)
	}
	c.mx.Add(obs.CtrBusBusyCycles, dom, c.burst)
	c.mx.Add(obs.CtrBankBusyCycles, dom, res.DataDone-res.Start)
	if !e.Req.Fake {
		c.mx.Observe(obs.HistReqLatency, dom, res.DataDone-e.Req.Arrival)
		if res.Start > e.Req.Arrival {
			c.mx.Observe(obs.HistQueueWait, dom, res.Start-e.Req.Arrival)
		} else {
			c.mx.Observe(obs.HistQueueWait, dom, 0)
		}
	}
	if c.tr != nil {
		c.tr.Emit(obs.Event{
			Cycle: res.Start, Dur: res.DataDone - res.Start,
			Comp: obs.CompBank, Kind: kind, Index: int32(e.FlatBank), Domain: int32(dom),
		})
		c.tr.Emit(obs.Event{
			Cycle: res.DataDone - c.burst, Dur: c.burst,
			Comp: obs.CompChannel, Kind: obs.EvBurst, Index: int32(e.Coord.Channel), Domain: int32(dom),
		})
	}
}

// drain pops every completion due at or before now into the controller's
// response buffer and returns it.
func (c *Controller) drain(now uint64) []mem.Response {
	out := c.resps[:0]
	for len(c.inflight) > 0 && c.inflight[0].at <= now {
		out = append(out, c.inflight.pop().resp)
	}
	c.resps = out
	return out
}

// NextEvent returns a lower bound on the first cycle at or after now at
// which Tick does more than sample the queue-depth histogram: the earlier
// of the next in-flight completion and, while transactions are queued,
// the scheduler's NextPick. It reports false when nothing is queued or in
// flight. Like NextPick it stands in for the scheduler's pick at now, so
// call it only at a cycle the controller has not ticked yet; SkipTicks
// then replays the ticks before the bound.
func (c *Controller) NextEvent(now uint64) (uint64, bool) {
	at, ok := uint64(math.MaxUint64), false
	if len(c.inflight) > 0 {
		at, ok = c.inflight[0].at, true
	}
	if len(c.queue) > 0 && at > now {
		at, ok = min(at, c.sched.NextPick(c.queue, now, c.dev)), true
	}
	return max(at, now), ok
}

// SkipTicks replays k ticks that issue and complete nothing, the cycles
// before NextEvent's bound: each samples the unchanged queue depth.
func (c *Controller) SkipTicks(k uint64) {
	c.mx.ObserveN(obs.HistQueueDepth, 0, uint64(len(c.queue)), k)
}

// Stats returns the cumulative counters.
func (c *Controller) Stats() Stats { return c.stats }

// BytesForDomain returns the real (non-fake) bytes served for the domain.
func (c *Controller) BytesForDomain(d mem.Domain) uint64 {
	if int(d) < len(c.byDomain) {
		return c.byDomain[d]
	}
	return 0
}

// QueueSnapshot returns the per-domain occupancy of the transaction queue,
// for watchdog diagnostics (the queue picture at the moment an invariant
// fails). Domains with no queued requests are absent from the map.
func (c *Controller) QueueSnapshot() map[mem.Domain]int {
	snap := make(map[mem.Domain]int, len(c.perDomain))
	for _, e := range c.queue {
		snap[e.Req.Domain]++
	}
	return snap
}

// NextCompletion returns the cycle of the earliest in-flight completion,
// or false if nothing is in flight. The watchdog uses it to tell a stalled
// device (completions parked in the far future) from an idle one.
func (c *Controller) NextCompletion() (uint64, bool) {
	if len(c.inflight) == 0 {
		return 0, false
	}
	return c.inflight[0].at, true
}

// PendingForDomain counts queued requests belonging to the domain.
func (c *Controller) PendingForDomain(d mem.Domain) int {
	n := 0
	for _, e := range c.queue {
		if e.Req.Domain == d {
			n++
		}
	}
	return n
}

// String describes the controller configuration.
func (c *Controller) String() string {
	return fmt.Sprintf("memctrl{%s cap=%d}", c.sched.Name(), c.capacity)
}
