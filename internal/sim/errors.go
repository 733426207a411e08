package sim

import (
	"fmt"
	"sort"
	"strings"

	"dagguise/internal/mem"
	"dagguise/internal/obs"
)

// Invariant names a forward-progress or protocol invariant the watchdog
// enforces every cycle.
type Invariant string

const (
	// InvariantDeadlock fires when the machine has pending work but
	// neither retires an instruction nor delivers a response for the
	// configured stall budget.
	InvariantDeadlock Invariant = "deadlock"
	// InvariantLivelock fires when a per-domain egress queue exceeds its
	// high-water mark: the shaper keeps producing but the controller
	// never accepts, so the system spins without net progress.
	InvariantLivelock Invariant = "livelock"
	// InvariantProtocol fires on request/response routing violations:
	// a response for an unknown or retired request, or a request routed
	// to the wrong domain's shaper.
	InvariantProtocol Invariant = "protocol"
)

// SimError is a structured simulation failure: which invariant broke, when,
// for which domain, and a snapshot of the queues at that moment. It
// replaces the former panic-or-hang behaviour so fault campaigns can
// classify outcomes and replay them from the reported state.
type SimError struct {
	// Cycle is the simulation cycle the invariant failed.
	Cycle uint64
	// Domain is the implicated security domain (0 when system-wide).
	Domain mem.Domain
	// Invariant identifies the failed check.
	Invariant Invariant
	// Detail is a human-readable elaboration.
	Detail string
	// Queue is the controller transaction queue occupancy per domain.
	Queue map[mem.Domain]int
	// Egress is the per-domain shaper egress queue depth.
	Egress map[mem.Domain]int
	// Err is the underlying typed error for protocol violations
	// (e.g. *shaper.UnknownResponseError), nil otherwise.
	Err error
}

// Error implements error.
func (e *SimError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s at cycle %d", e.Invariant, e.Cycle)
	if e.Domain != 0 {
		fmt.Fprintf(&b, " (domain %d)", e.Domain)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, ": %s", e.Detail)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	if len(e.Queue) > 0 {
		fmt.Fprintf(&b, " [queue %s]", formatDepths(e.Queue))
	}
	if len(e.Egress) > 0 {
		fmt.Fprintf(&b, " [egress %s]", formatDepths(e.Egress))
	}
	return b.String()
}

// Unwrap exposes the underlying protocol error to errors.Is/As.
func (e *SimError) Unwrap() error { return e.Err }

func formatDepths(m map[mem.Domain]int) string {
	doms := make([]int, 0, len(m))
	for d := range m {
		doms = append(doms, int(d))
	}
	sort.Ints(doms)
	parts := make([]string, 0, len(doms))
	for _, d := range doms {
		parts = append(parts, fmt.Sprintf("d%d=%d", d, m[mem.Domain(d)]))
	}
	return strings.Join(parts, " ")
}

// Watchdog configures the forward-progress invariants every tick checks
// once SetWatchdog arms them. The zero value of a field disables that
// check.
type Watchdog struct {
	// StallBudget is the number of consecutive cycles the machine may go
	// with pending work but no instruction retired and no response
	// delivered before the deadlock invariant fires. It must comfortably
	// exceed legitimate stall spans (refresh windows, TP dead time, and
	// any finite injected storm).
	StallBudget uint64
	// EgressHighWater is the per-domain egress queue depth above which
	// the livelock invariant fires.
	EgressHighWater int
}

// DefaultWatchdog returns the budget the CLIs arm with SetWatchdog: 50k
// cycles of stall (an order of magnitude above the longest legitimate
// stall on the Table 2 machine) and a 4096-entry egress bound. Nothing
// arms it implicitly.
func DefaultWatchdog() Watchdog {
	return Watchdog{StallBudget: 50_000, EgressHighWater: 4096}
}

// errf builds a SimError with the current queue snapshots (summed per
// domain over the channels) attached, and marks the violation in the event
// trace so a postmortem trace shows where the run died.
func (s *System) errf(inv Invariant, dom mem.Domain, cause error, format string, args ...interface{}) *SimError {
	s.tr.Emit(obs.Event{Cycle: s.now, Comp: obs.CompSystem, Kind: obs.EvViolation, Domain: int32(dom)})
	queue := make(map[mem.Domain]int)
	egress := make(map[mem.Domain]int)
	for _, ch := range s.chans {
		for d, n := range ch.ctrl.QueueSnapshot() {
			queue[d] += n
		}
		for _, p := range ch.shaped {
			if len(p.egress) > 0 {
				egress[p.dom] += len(p.egress)
			}
		}
	}
	return &SimError{
		Cycle:     s.now,
		Domain:    dom,
		Invariant: inv,
		Detail:    fmt.Sprintf(format, args...),
		Queue:     queue,
		Egress:    egress,
		Err:       cause,
	}
}
