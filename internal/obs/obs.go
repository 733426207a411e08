// Package obs is the observability layer of the simulator: typed
// per-domain counters, log-bucketed histograms, a bounded cycle-accurate
// event tracer, a cycle-attribution profiler, and exporters (Chrome
// trace-event JSON for Perfetto and text summary tables).
//
// Two invariants govern the package:
//
//   - Zero overhead when disabled. Every collection method is declared on
//     a pointer receiver and is a no-op on the nil pointer, so components
//     hold a possibly-nil *Registry / *Tracer and call through it
//     unconditionally; with observability off the hot tick loop pays one
//     predictable nil check per site and nothing else.
//
//   - Measurement only. Nothing in the simulator ever reads a Registry or
//     Tracer during a tick, so enabling observability cannot perturb
//     simulated timing. internal/sim's observability non-interference test
//     holds the shaped egress stream bit-identical with tracing on and off.
//
// Collection is safe for concurrent use: counters and histogram buckets
// are updated with atomic adds, so the parallel workers of a figure sweep
// or a fleet may share one Registry, and a reader may snapshot while
// writers run.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter identifies one per-domain monotonic counter. Domain 0 holds
// system-wide (unattributed) values; domains 1..N mirror mem.Domain.
type Counter uint8

// The counter catalog. See DESIGN.md "Observability" for the full
// semantics of each metric.
const (
	// DRAM row-buffer outcomes, attributed to the requesting domain.
	CtrRowHits Counter = iota
	CtrRowMisses
	CtrRowConflicts
	// CtrPrecharges counts PRE commands (conflict precharges plus
	// closed-row auto-precharges).
	CtrPrecharges
	// CtrRefreshes counts refresh windows performed (domain 0).
	CtrRefreshes
	// CtrRefreshStallCycles accumulates cycles transactions were displaced
	// by refresh windows (domain 0).
	CtrRefreshStallCycles
	// CtrBusBusyCycles accumulates data-bus burst occupancy per domain;
	// the sum over domains divided by wall cycles is bus utilization.
	CtrBusBusyCycles
	// CtrBankBusyCycles accumulates bank occupancy (start to data done).
	CtrBankBusyCycles
	// Controller issue counters per domain.
	CtrIssuedReads
	CtrIssuedWrites
	CtrIssuedFakes
	// CtrSchedPicks counts scheduling decisions that issued a transaction;
	// CtrSchedReorders counts those that bypassed an older queued request
	// (FR-FCFS row-hit-first and starvation-guard reordering). Domain 0.
	CtrSchedPicks
	CtrSchedReorders
	// Secure-arbiter slot accounting (domain 0): slots examined, slots
	// that issued, and owned slots wasted for lack of an eligible request.
	CtrSlotsSeen
	CtrSlotsUsed
	CtrSlotsWasted
	// Shaper emission counters per protected domain.
	CtrShaperForwarded
	CtrShaperFakes
	CtrShaperRejected
	// Core counters per domain.
	CtrRetired
	CtrROBStallCycles
	// Fleet fabric counters (domain 0): shard outcomes and durability
	// events across the worker pool.
	CtrFleetShardsDone
	CtrFleetShardsFailed
	CtrFleetRetries
	CtrFleetCheckpoints
	CtrFleetResumes

	numCounters
)

// counterNames indexes Counter -> stable snake-case name (its String
// form, as DESIGN.md's counter table lists it).
var counterNames = [numCounters]string{
	CtrRowHits:            "row_hits",
	CtrRowMisses:          "row_misses",
	CtrRowConflicts:       "row_conflicts",
	CtrPrecharges:         "precharges",
	CtrRefreshes:          "refreshes",
	CtrRefreshStallCycles: "refresh_stall_cycles",
	CtrBusBusyCycles:      "bus_busy_cycles",
	CtrBankBusyCycles:     "bank_busy_cycles",
	CtrIssuedReads:        "issued_reads",
	CtrIssuedWrites:       "issued_writes",
	CtrIssuedFakes:        "issued_fakes",
	CtrSchedPicks:         "sched_picks",
	CtrSchedReorders:      "sched_reorders",
	CtrSlotsSeen:          "slots_seen",
	CtrSlotsUsed:          "slots_used",
	CtrSlotsWasted:        "slots_wasted",
	CtrShaperForwarded:    "shaper_forwarded",
	CtrShaperFakes:        "shaper_fakes",
	CtrShaperRejected:     "shaper_rejected",
	CtrRetired:            "retired",
	CtrROBStallCycles:     "rob_stall_cycles",
	CtrFleetShardsDone:    "fleet_shards_done",
	CtrFleetShardsFailed:  "fleet_shards_failed",
	CtrFleetRetries:       "fleet_retries",
	CtrFleetCheckpoints:   "fleet_checkpoints",
	CtrFleetResumes:       "fleet_resumes",
}

// String returns the counter's stable name.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown_counter"
}

// NumCounters is the size of the counter catalog.
const NumCounters = int(numCounters)

// Hist identifies one per-domain log-bucketed histogram.
type Hist uint8

const (
	// HistReqLatency is transaction latency (arrival to data done).
	HistReqLatency Hist = iota
	// HistQueueWait is transaction queueing delay (arrival to issue).
	HistQueueWait
	// HistQueueDepth is the controller transaction-queue occupancy,
	// sampled every tick (domain 0).
	HistQueueDepth
	// HistShaperQueue is the shaper private-queue occupancy, sampled
	// every tick per protected domain.
	HistShaperQueue
	// HistEgressQueue is the shaped egress staging-queue peak occupancy,
	// sampled every tick per protected domain.
	HistEgressQueue
	// HistNodeWait is rDAG node service time: emission of a slot to its
	// completion callback, per protected domain.
	HistNodeWait
	// HistMLP is memory-level parallelism: outstanding demand reads,
	// sampled every cycle per core domain.
	HistMLP

	numHists
)

var histNames = [numHists]string{
	HistReqLatency:  "req_latency",
	HistQueueWait:   "queue_wait",
	HistQueueDepth:  "queue_depth",
	HistShaperQueue: "shaper_queue_occupancy",
	HistEgressQueue: "egress_queue_occupancy",
	HistNodeWait:    "rdag_node_wait",
	HistMLP:         "mlp",
}

// String returns the histogram's stable name.
func (h Hist) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return "unknown_hist"
}

// NumHists is the size of the histogram catalog.
const NumHists = int(numHists)

// NumBuckets is the bucket count of every histogram: bucket 0 holds the
// value 0 and bucket i (1 <= i <= 64) holds values in [2^(i-1), 2^i).
const NumBuckets = 65

// Bucket returns the histogram bucket index of v.
func Bucket(v uint64) int { return bits.Len64(v) }

// BucketLow returns the smallest value belonging to bucket b.
func BucketLow(b int) uint64 {
	if b <= 0 {
		return 0
	}
	return 1 << (b - 1)
}

// Registry collects the counters and histograms of one simulated machine
// (or of several, when shared across runs of a sweep). The zero domain is
// reserved for system-wide metrics; construct it with one slot per
// security domain plus that zero slot. All methods are safe on a nil
// receiver, where they are no-ops.
type Registry struct {
	domains  int
	counters []uint64 // [counter*domains + domain]
	hists    []uint64 // [(hist*domains + domain)*NumBuckets + bucket]
}

// NewRegistry builds a registry for domain indices 0..domains-1 (pass the
// core count plus one: domain 0 is the system-wide slot).
func NewRegistry(domains int) *Registry {
	if domains < 1 {
		domains = 1
	}
	return &Registry{
		domains:  domains,
		counters: make([]uint64, NumCounters*domains),
		hists:    make([]uint64, NumHists*domains*NumBuckets),
	}
}

// Domains returns the number of domain slots (including slot 0).
func (r *Registry) Domains() int {
	if r == nil {
		return 0
	}
	return r.domains
}

// clamp maps out-of-range domains onto the unattributed slot 0 so a
// miswired caller can never corrupt memory.
func (r *Registry) clamp(d int) int {
	if d < 0 || d >= r.domains {
		return 0
	}
	return d
}

// Inc adds one to counter c of domain d. No-op on nil.
func (r *Registry) Inc(c Counter, d int) {
	if r == nil {
		return
	}
	atomic.AddUint64(&r.counters[int(c)*r.domains+r.clamp(d)], 1)
}

// Add adds n to counter c of domain d. No-op on nil.
func (r *Registry) Add(c Counter, d int, n uint64) {
	if r == nil {
		return
	}
	atomic.AddUint64(&r.counters[int(c)*r.domains+r.clamp(d)], n)
}

// Observe records value v into histogram h of domain d. No-op on nil.
func (r *Registry) Observe(h Hist, d int, v uint64) {
	if r == nil {
		return
	}
	base := (int(h)*r.domains + r.clamp(d)) * NumBuckets
	atomic.AddUint64(&r.hists[base+Bucket(v)], 1)
}

// ObserveN records n samples of value v into histogram h of domain d,
// exactly as n Observe calls would. The machine uses it to replay the
// per-cycle samples of a run of quiet cycles at once. No-op on nil.
func (r *Registry) ObserveN(h Hist, d int, v, n uint64) {
	if r == nil {
		return
	}
	base := (int(h)*r.domains + r.clamp(d)) * NumBuckets
	atomic.AddUint64(&r.hists[base+Bucket(v)], n)
}

// Counter returns the current value of counter c for domain d.
func (r *Registry) Counter(c Counter, d int) uint64 {
	if r == nil {
		return 0
	}
	return atomic.LoadUint64(&r.counters[int(c)*r.domains+r.clamp(d)])
}

// CounterTotal returns counter c summed over all domains.
func (r *Registry) CounterTotal(c Counter) uint64 {
	if r == nil {
		return 0
	}
	var sum uint64
	for d := 0; d < r.domains; d++ {
		sum += atomic.LoadUint64(&r.counters[int(c)*r.domains+d])
	}
	return sum
}

// Snapshot copies the registry's current state. The copy is a plain value
// safe to keep, diff and serialize; it observes each cell atomically (the
// snapshot as a whole is not a single atomic cut, which is fine for
// monotonic counters).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Domains:  r.domains,
		Counters: make([]uint64, len(r.counters)),
		Hists:    make([]uint64, len(r.hists)),
	}
	for i := range r.counters {
		s.Counters[i] = atomic.LoadUint64(&r.counters[i])
	}
	for i := range r.hists {
		s.Hists[i] = atomic.LoadUint64(&r.hists[i])
	}
	return s
}

// Snapshot is an immutable copy of a Registry, used for Result.Metrics
// (a measurement window's delta) and the text summary.
type Snapshot struct {
	Domains  int
	Counters []uint64
	Hists    []uint64
}

// Counter returns counter c of domain d (0 for out-of-range domains).
func (s *Snapshot) Counter(c Counter, d int) uint64 {
	if s == nil || d < 0 || d >= s.Domains {
		return 0
	}
	return s.Counters[int(c)*s.Domains+d]
}

// CounterTotal sums counter c over all domains.
func (s *Snapshot) CounterTotal(c Counter) uint64 {
	if s == nil {
		return 0
	}
	var sum uint64
	for d := 0; d < s.Domains; d++ {
		sum += s.Counters[int(c)*s.Domains+d]
	}
	return sum
}

// HistBuckets returns the bucket counts of histogram h for domain d
// (nil for out-of-range domains).
func (s *Snapshot) HistBuckets(h Hist, d int) []uint64 {
	if s == nil || d < 0 || d >= s.Domains {
		return nil
	}
	base := (int(h)*s.Domains + d) * NumBuckets
	return s.Hists[base : base+NumBuckets]
}

// HistTotal returns the number of observations in histogram h, domain d.
func (s *Snapshot) HistTotal(h Hist, d int) uint64 {
	var sum uint64
	for _, n := range s.HistBuckets(h, d) {
		sum += n
	}
	return sum
}

// HistQuantile returns the lower bound of the bucket containing quantile
// q (0 < q <= 1) of histogram h, domain d, and false when empty.
func (s *Snapshot) HistQuantile(h Hist, d int, q float64) (uint64, bool) {
	buckets := s.HistBuckets(h, d)
	total := s.HistTotal(h, d)
	if total == 0 {
		return 0, false
	}
	// The q-quantile is the ceil(q*n)-th smallest observation, so a
	// median over three samples is the second, not the first.
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen uint64
	for b, n := range buckets {
		seen += n
		if seen >= target {
			return BucketLow(b), true
		}
	}
	return BucketLow(NumBuckets - 1), true
}

// Sub returns the element-wise difference s - prev, for measuring a
// window out of cumulative state. prev may be nil (returns a copy of s);
// the two snapshots must come from the same registry shape.
func (s *Snapshot) Sub(prev *Snapshot) *Snapshot {
	if s == nil {
		return nil
	}
	out := &Snapshot{
		Domains:  s.Domains,
		Counters: append([]uint64(nil), s.Counters...),
		Hists:    append([]uint64(nil), s.Hists...),
	}
	if prev == nil {
		return out
	}
	for i := range out.Counters {
		if i < len(prev.Counters) {
			out.Counters[i] -= prev.Counters[i]
		}
	}
	for i := range out.Hists {
		if i < len(prev.Hists) {
			out.Hists[i] -= prev.Hists[i]
		}
	}
	return out
}
