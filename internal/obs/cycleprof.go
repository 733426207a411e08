package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// ProfBucket names one attribution bucket of the tick-loop cycle
// profiler. The catalog mirrors the simulator's component layering.
type ProfBucket uint8

const (
	// PBHarness absorbs time spent outside instrumented sections: the
	// benchmark loop itself, function-call glue between laps, and the
	// profiler's own timestamp reads. Keeping it as an explicit bucket
	// is what lets the report account for ~100% of wall time instead
	// of leaving inter-section gaps unattributed.
	PBHarness ProfBucket = iota
	// PBCPU is the core model: ROB advance, address generation, retire.
	PBCPU
	// PBShaper is rDAG shaping: slot emission, queue admission.
	PBShaper
	// PBCamouflage is fake-request synthesis for unused rDAG slots.
	PBCamouflage
	// PBEgress is shaped-egress staging, tracing and drain.
	PBEgress
	// PBSched is memory-controller scheduling (FR-FCFS / secure arbiter
	// picks).
	PBSched
	// PBDRAM is device timing: bank/rank/bus state machines in Service.
	PBDRAM
	// PBMemctrl is controller bookkeeping around the scheduler: queue
	// intake, completion heap, stats and drain.
	PBMemctrl
	// PBRoute is response routing back to cores.
	PBRoute
	// PBOther is everything explicitly lapped but not in the catalog
	// (fault delivery, audit taps, watchdog checks).
	PBOther

	numProfBuckets
)

var profBucketNames = [numProfBuckets]string{
	PBHarness:    "harness",
	PBCPU:        "cpu",
	PBShaper:     "shaper",
	PBCamouflage: "camouflage",
	PBEgress:     "egress",
	PBSched:      "sched",
	PBDRAM:       "dram",
	PBMemctrl:    "memctrl",
	PBRoute:      "route",
	PBOther:      "other",
}

// String returns the bucket's stable name.
func (b ProfBucket) String() string {
	if int(b) < len(profBucketNames) {
		return profBucketNames[b]
	}
	return "unknown"
}

// NumProfBuckets is the size of the bucket catalog.
const NumProfBuckets = int(numProfBuckets)

// CycleProfile attributes wall time to per-component buckets with a
// telescoping lap clock: the profiler keeps a single "last lap"
// timestamp, and each Lap(b) charges the time since the previous lap —
// whichever bucket it hit — to b and advances the clock. Because every
// nanosecond between the first and the latest lap lands in exactly one
// bucket, the sum of buckets equals elapsed wall time by construction;
// unattributed time can only accrue before the first lap. Instrumented
// code brackets each section with a Lap at its end, and the tick
// harness laps PBHarness at the top of each tick to absorb loop glue.
//
// Nil receivers are no-ops (~2 ns/site), so the profiler threads
// through the hot loop exactly like Registry and Tracer. It is NOT safe
// for concurrent use: one profiler belongs to one simulation thread.
type CycleProfile struct {
	base time.Time
	// clock, when set, replaces the wall clock as the lap time source
	// (nanoseconds since the start), so a test can drive attribution
	// without depending on how the host schedules it.
	clock func() int64
	last  int64
	ns    [numProfBuckets]int64
	laps  [numProfBuckets]uint64
}

// NewCycleProfile starts a profiler; the lap clock begins at the call.
func NewCycleProfile() *CycleProfile {
	return &CycleProfile{base: time.Now()}
}

// Lap charges the time since the previous lap to bucket b and advances
// the lap clock. No-op on nil. The clock read is outlined in lap so that
// Lap itself inlines and a nil profiler costs the tick loop one compare.
func (p *CycleProfile) Lap(b ProfBucket) {
	if p != nil {
		p.lap(b)
	}
}

func (p *CycleProfile) lap(b ProfBucket) {
	now := p.elapsed()
	p.ns[b] += now - p.last
	p.laps[b]++
	p.last = now
}

// elapsed reads the lap clock: nanoseconds since the profile started.
func (p *CycleProfile) elapsed() int64 {
	if p.clock != nil {
		return p.clock()
	}
	return int64(time.Since(p.base))
}

// Ns returns the nanoseconds attributed to bucket b so far.
func (p *CycleProfile) Ns(b ProfBucket) int64 {
	if p == nil {
		return 0
	}
	return p.ns[b]
}

// Laps returns how many laps landed in bucket b.
func (p *CycleProfile) Laps(b ProfBucket) uint64 {
	if p == nil {
		return 0
	}
	return p.laps[b]
}

// Reset zeroes all buckets and restarts the lap clock.
func (p *CycleProfile) Reset() {
	if p == nil {
		return
	}
	*p = CycleProfile{base: time.Now(), clock: p.clock}
	p.last = p.elapsed()
}

// ProfReport is the cycle-attribution evidence file: per-bucket wall
// time with shares of the attributed total, plus coverage against a
// caller-measured wall-clock interval (e.g. the benchmark's elapsed
// time). Coverage >= 0.95 is the acceptance bar gating the
// event-driven refactor.
type ProfReport struct {
	// Buckets is sorted by descending nanoseconds, stable by name.
	Buckets []ProfBucketReport `json:"buckets"`
	// TotalNs is the sum over all buckets (attributed time).
	TotalNs int64 `json:"total_ns"`
	// WallNs is the caller-supplied wall interval (0 = unknown).
	WallNs int64 `json:"wall_ns,omitempty"`
	// Coverage is TotalNs/WallNs, the fraction of wall time the
	// attribution explains (omitted when WallNs is 0).
	Coverage float64 `json:"coverage,omitempty"`
	// Ticks is the caller-supplied tick count (0 = unknown); with it
	// each bucket also reports ns/tick.
	Ticks uint64 `json:"ticks,omitempty"`
}

// ProfBucketReport is one bucket row of a ProfReport.
type ProfBucketReport struct {
	Name      string  `json:"name"`
	Ns        int64   `json:"ns"`
	Share     float64 `json:"share"`
	Laps      uint64  `json:"laps"`
	NsPerTick float64 `json:"ns_per_tick,omitempty"`
}

// Report builds the attribution report. wall is the wall-clock interval
// the profile should explain (pass 0 to skip coverage) and ticks the
// number of simulated ticks it spans (0 to skip per-tick rates).
func (p *CycleProfile) Report(wall time.Duration, ticks uint64) *ProfReport {
	if p == nil {
		return nil
	}
	r := &ProfReport{WallNs: int64(wall), Ticks: ticks}
	for b := ProfBucket(0); b < numProfBuckets; b++ {
		if p.ns[b] == 0 && p.laps[b] == 0 {
			continue
		}
		row := ProfBucketReport{Name: b.String(), Ns: p.ns[b], Laps: p.laps[b]}
		if ticks > 0 {
			row.NsPerTick = float64(p.ns[b]) / float64(ticks)
		}
		r.Buckets = append(r.Buckets, row)
		r.TotalNs += p.ns[b]
	}
	for i := range r.Buckets {
		if r.TotalNs > 0 {
			r.Buckets[i].Share = float64(r.Buckets[i].Ns) / float64(r.TotalNs)
		}
	}
	sort.SliceStable(r.Buckets, func(i, j int) bool {
		if r.Buckets[i].Ns != r.Buckets[j].Ns {
			return r.Buckets[i].Ns > r.Buckets[j].Ns
		}
		return r.Buckets[i].Name < r.Buckets[j].Name
	})
	if r.WallNs > 0 {
		r.Coverage = float64(r.TotalNs) / float64(r.WallNs)
	}
	return r
}

// String renders the report as the text table printed by
// dagsim -cycle-profile.
func (r *ProfReport) String() string {
	if r == nil {
		return "cycle profiling disabled\n"
	}
	var b strings.Builder
	b.WriteString("== cycle attribution ==\n")
	fmt.Fprintf(&b, "%-12s %14s %8s %12s", "bucket", "ns", "share", "laps")
	if r.Ticks > 0 {
		fmt.Fprintf(&b, " %10s", "ns/tick")
	}
	b.WriteString("\n")
	for _, row := range r.Buckets {
		fmt.Fprintf(&b, "%-12s %14d %7.1f%% %12d", row.Name, row.Ns, 100*row.Share, row.Laps)
		if r.Ticks > 0 {
			fmt.Fprintf(&b, " %10.1f", row.NsPerTick)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "attributed %d ns", r.TotalNs)
	if r.WallNs > 0 {
		fmt.Fprintf(&b, " of %d ns wall (coverage %.1f%%)", r.WallNs, 100*r.Coverage)
	}
	if r.Ticks > 0 {
		fmt.Fprintf(&b, " over %d ticks", r.Ticks)
	}
	b.WriteString("\n")
	return b.String()
}

// WriteJSON writes the report as deterministic indented JSON.
func (r *ProfReport) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
