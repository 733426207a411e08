// Package fault is a deterministic, seeded fault-injection layer for the
// simulated memory system. A Schedule is a list of concrete fault Events —
// DRAM stall windows (refresh storms beyond nominal tREFI/tRFC), response
// delay or drop at the controller→core boundary with bounded redelivery,
// shaper private-queue backpressure bursts, and per-domain egress stalls —
// and an Injector answers point queries about them cycle by cycle.
//
// Two properties are load-bearing:
//
//   - Determinism: a Schedule is a pure function of its seed, so any
//     failure found by a randomized campaign replays exactly from the
//     reported seed.
//   - Secret independence: every injection decision is keyed on
//     (cycle, domain) only — never on request IDs, addresses or queue
//     contents, which may differ between runs with different victim
//     secrets. Two simulations that differ only in secret data therefore
//     experience bit-identical fault sequences, which is what lets the
//     non-interference-under-faults test extend the paper's security
//     argument from the nominal machine to the faulty one.
package fault

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dagguise/internal/mem"
	"dagguise/internal/rng"
)

// Kind enumerates the concrete fault classes the injector can realise.
type Kind int

const (
	// DRAMStall is a device-level blackout window: a refresh storm during
	// which no DRAM command may start. Transactions committed inside the
	// window are pushed past its end, exactly like an (oversized) tRFC.
	DRAMStall Kind = iota
	// RespDelay adds Delay cycles to every response completing inside the
	// window on the controller→core boundary (bus jitter / ECC retry).
	RespDelay
	// RespDrop drops responses completing inside the window and
	// redelivers each once, Delay cycles after the window ends (a bounded
	// retry: the link recovers when the fault clears).
	RespDrop
	// ShaperBackpressure forces a protected domain's shaper private queue
	// to reject enqueues for the window, stalling the domain's core. The
	// shaped egress stream is unaffected: the shaper keeps following its
	// defense rDAG, substituting fakes for missing real requests.
	ShaperBackpressure
	// EgressStall blocks the shaper→controller egress path of a domain
	// for the window; emissions pile up in the per-domain egress queue.
	EgressStall
)

var kindNames = map[Kind]string{
	DRAMStall:          "dram-stall",
	RespDelay:          "resp-delay",
	RespDrop:           "resp-drop",
	ShaperBackpressure: "shaper-backpressure",
	EgressStall:        "egress-stall",
}

// String names the fault kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Forever is a duration that outlasts any realistic simulation horizon; use
// it to craft permanent faults (e.g. a DRAM device that never recovers) for
// watchdog tests. It is kept well below 2^64 so that window arithmetic and
// DRAM schedule computation cannot overflow.
const Forever uint64 = 1 << 60

// AllDomains matches every security domain (the zero value of mem.Domain
// is reserved for unattributed traffic and never labels a core).
const AllDomains mem.Domain = 0

// Event is one concrete fault: a kind, a half-open activity window
// [Start, Start+Duration), the domain it applies to (AllDomains for all),
// and a kind-specific Delay parameter.
type Event struct {
	Kind     Kind
	Domain   mem.Domain // AllDomains = every domain
	Start    uint64
	Duration uint64
	// Delay is the extra latency for RespDelay and the post-window retry
	// latency for RespDrop; unused otherwise.
	Delay uint64
}

// End returns the first cycle after the window, saturating at Forever.
func (e Event) End() uint64 {
	if e.Duration >= Forever || e.Start >= Forever-e.Duration {
		return Forever
	}
	return e.Start + e.Duration
}

// active reports whether the event covers cycle now for domain dom.
func (e Event) active(dom mem.Domain, now uint64) bool {
	if e.Domain != AllDomains && e.Domain != dom {
		return false
	}
	return now >= e.Start && now < e.End()
}

// String renders the event compactly.
func (e Event) String() string {
	dom := "all"
	if e.Domain != AllDomains {
		dom = fmt.Sprintf("%d", e.Domain)
	}
	return fmt.Sprintf("%s{dom=%s [%d,%d) delay=%d}", e.Kind, dom, e.Start, e.End(), e.Delay)
}

// Schedule is a reproducible set of fault events. The Seed is carried along
// purely for reporting: a campaign failure prints the seed, and rebuilding
// the schedule from it replays the identical fault sequence.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Validate rejects malformed schedules.
func (s Schedule) Validate() error {
	for i, e := range s.Events {
		if _, ok := kindNames[e.Kind]; !ok {
			return fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
		if e.Duration == 0 {
			return fmt.Errorf("fault: event %d (%s) has zero duration", i, e.Kind)
		}
		if e.Kind == RespDelay && e.Delay == 0 {
			return fmt.Errorf("fault: event %d (resp-delay) has zero delay", i)
		}
	}
	return nil
}

// Injector answers per-cycle fault queries for a validated schedule. All
// queries are pure functions of (kind, domain, cycle); the injector holds
// no mutable state, so one injector may serve concurrent simulations.
type Injector struct {
	byKind map[Kind][]Event
	edges  []uint64 // every window's start and end, ascending, unique
}

// NewInjector validates the schedule and builds an injector over it.
func NewInjector(s Schedule) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{byKind: make(map[Kind][]Event)}
	for _, e := range s.Events {
		in.byKind[e.Kind] = append(in.byKind[e.Kind], e)
	}
	for k := range in.byKind {
		evs := in.byKind[k]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	}
	for _, e := range s.Events {
		in.edges = append(in.edges, e.Start, e.End())
	}
	sort.Slice(in.edges, func(i, j int) bool { return in.edges[i] < in.edges[j] })
	in.edges = slices.Compact(in.edges)
	return in, nil
}

// MustInjector panics on schedule error (for tests and fixed schedules).
func MustInjector(s Schedule) *Injector {
	in, err := NewInjector(s)
	if err != nil {
		panic(err)
	}
	return in
}

// StallWindows returns the DRAM blackout windows, for attachment to the
// device model.
func (in *Injector) StallWindows() []Event { return in.byKind[DRAMStall] }

// EgressStalled reports whether the domain's egress path is blocked at now.
func (in *Injector) EgressStalled(dom mem.Domain, now uint64) bool {
	return in.anyActive(EgressStall, dom, now)
}

// ShaperRejects reports whether the domain's shaper must refuse enqueues at
// now (private-queue backpressure burst).
func (in *Injector) ShaperRejects(dom mem.Domain, now uint64) bool {
	return in.anyActive(ShaperBackpressure, dom, now)
}

// DeferResponse reports whether a response for the domain completing at now
// must be withheld, and if so until which cycle it is redelivered. Delay
// and drop compose by taking the latest redelivery time, so overlapping
// windows remain deterministic. The redelivery cycle is always strictly
// after now and bounded: drops redeliver Delay cycles after their window
// ends, never silently losing the response.
func (in *Injector) DeferResponse(dom mem.Domain, now uint64) (uint64, bool) {
	var until uint64
	for _, e := range in.byKind[RespDelay] {
		if e.active(dom, now) && now+e.Delay > until {
			until = now + e.Delay
		}
	}
	for _, e := range in.byKind[RespDrop] {
		if e.active(dom, now) {
			at := e.End() + e.Delay
			if at <= now {
				at = now + 1
			}
			if at > until {
				until = at
			}
		}
	}
	return until, until > now
}

// NextEdge returns the first cycle after now at which any fault window
// opens or closes (math.MaxUint64 when none does). Every cycle before it
// sees the same set of active windows as now, so a machine may treat the
// cycles in between alike.
func (in *Injector) NextEdge(now uint64) uint64 {
	i := sort.Search(len(in.edges), func(i int) bool { return in.edges[i] > now })
	if i == len(in.edges) {
		return math.MaxUint64
	}
	return in.edges[i]
}

func (in *Injector) anyActive(k Kind, dom mem.Domain, now uint64) bool {
	for _, e := range in.byKind[k] {
		if e.active(dom, now) {
			return true
		}
	}
	return false
}

// CampaignConfig bounds the random fault campaign generator.
type CampaignConfig struct {
	// Horizon is the cycle span faults are placed in.
	Horizon uint64
	// Domains lists the protected domains eligible for domain-scoped
	// faults (shaper backpressure, egress stall). Delay/drop and DRAM
	// storms may also target AllDomains.
	Domains []mem.Domain
	// MaxStorm bounds a DRAM storm's duration; keep it below the
	// watchdog's stall budget or a healthy system will be flagged as
	// deadlocked. Zero selects Horizon/16.
	MaxStorm uint64
	// Events is the number of fault events to draw. Zero selects 12.
	Events int
}

// Campaign draws a randomized but fully seed-determined fault schedule:
// calling it twice with equal arguments yields identical schedules.
func Campaign(seed int64, cfg CampaignConfig) Schedule {
	rnd := rng.New(seed)
	if cfg.Events == 0 {
		cfg.Events = 12
	}
	if cfg.MaxStorm == 0 {
		cfg.MaxStorm = cfg.Horizon / 16
	}
	if cfg.MaxStorm == 0 {
		cfg.MaxStorm = 1
	}
	pick := func(n uint64) uint64 {
		if n == 0 {
			return 0
		}
		return uint64(rnd.Int63n(int64(n)))
	}
	domain := func() mem.Domain {
		if len(cfg.Domains) == 0 || rnd.Intn(3) == 0 {
			return AllDomains
		}
		return cfg.Domains[rnd.Intn(len(cfg.Domains))]
	}
	sched := Schedule{Seed: seed}
	for i := 0; i < cfg.Events; i++ {
		var e Event
		switch Kind(rnd.Intn(5)) {
		case DRAMStall:
			e = Event{Kind: DRAMStall, Start: pick(cfg.Horizon), Duration: 1 + pick(cfg.MaxStorm)}
		case RespDelay:
			e = Event{Kind: RespDelay, Domain: domain(), Start: pick(cfg.Horizon), Duration: 1 + pick(cfg.Horizon/8+1), Delay: 1 + pick(500)}
		case RespDrop:
			e = Event{Kind: RespDrop, Domain: domain(), Start: pick(cfg.Horizon), Duration: 1 + pick(cfg.Horizon/32+1), Delay: 1 + pick(200)}
		case ShaperBackpressure:
			e = Event{Kind: ShaperBackpressure, Domain: domain(), Start: pick(cfg.Horizon), Duration: 1 + pick(cfg.Horizon/8+1)}
		default:
			e = Event{Kind: EgressStall, Domain: domain(), Start: pick(cfg.Horizon), Duration: 1 + pick(cfg.Horizon/32+1)}
		}
		sched.Events = append(sched.Events, e)
	}
	return sched
}
