package obs

import "sync"

// Component names the hardware unit an event belongs to; in the Chrome
// trace export each component becomes a process with one thread (lane)
// per Index, so banks, shapers and cores render as parallel swimlanes.
type Component uint8

const (
	// CompBank events live on per-DRAM-bank lanes (Index = flat bank).
	CompBank Component = iota
	// CompChannel events live on per-channel data-bus lanes.
	CompChannel
	// CompRank events live on per-rank lanes (refresh windows).
	CompRank
	// CompShaper events live on per-shaper lanes (Index = domain).
	CompShaper
	// CompCore events live on per-core lanes (Index = domain).
	CompCore
	// CompSystem events are system-level markers (watchdog violations).
	CompSystem
	// CompRunner events live on the campaign supervisor's per-shard lanes.
	CompRunner

	numComponents
)

var componentNames = [numComponents]string{
	CompBank:    "dram banks",
	CompChannel: "data bus",
	CompRank:    "ranks",
	CompShaper:  "shapers",
	CompCore:    "cores",
	CompSystem:  "system",
	CompRunner:  "runner",
}

// String returns the component's lane-group name.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "unknown"
}

// EventKind classifies a traced event.
type EventKind uint8

const (
	// Row-buffer outcomes of a committed transaction (bank lanes).
	EvRowHit EventKind = iota
	EvRowMiss
	EvRowConflict
	// EvBurst is the data burst of a transaction (channel lanes).
	EvBurst
	// EvRefresh is a refresh-displacement window (rank lanes).
	EvRefresh
	// EvReal / EvFake are shaper emissions (shaper lanes).
	EvReal
	EvFake
	// EvEgressStall marks a tick whose shaped egress could not drain
	// (shaper lanes).
	EvEgressStall
	// EvViolation marks a watchdog invariant failure (system lane).
	EvViolation
	// EvSpanBegin / EvSpanEnd bracket a structured span (flight
	// recorder); Span carries the span ID, Parent the enclosing span.
	EvSpanBegin
	EvSpanEnd

	numEventKinds
)

var eventNames = [numEventKinds]string{
	EvRowHit:      "row-hit",
	EvRowMiss:     "row-miss",
	EvRowConflict: "row-conflict",
	EvBurst:       "burst",
	EvRefresh:     "refresh",
	EvReal:        "real",
	EvFake:        "fake",
	EvEgressStall: "egress-stall",
	EvViolation:   "violation",
	EvSpanBegin:   "span-begin",
	EvSpanEnd:     "span-end",
}

// String returns the event kind's display name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// Event is one traced occurrence: at Cycle, lasting Dur cycles (0 =
// instant), on lane Index of component Comp, attributed to Domain.
// Span events (EvSpanBegin/EvSpanEnd) additionally carry the span ID,
// its parent span (0 = root) and a display name; every other kind
// leaves those fields zero.
type Event struct {
	Cycle  uint64
	Dur    uint64
	Span   uint64
	Parent uint64
	Name   string
	Comp   Component
	Kind   EventKind
	Index  int32
	Domain int32
}

// Tracer records events into a bounded ring buffer: when full, the oldest
// events are overwritten and counted. All methods are safe on a nil
// receiver (no-ops) and safe for concurrent use.
type Tracer struct {
	mu          sync.Mutex
	buf         []Event
	next        int
	wrapped     bool
	overwritten uint64
}

// DefaultTraceCap is the default ring capacity (events).
const DefaultTraceCap = 1 << 20

// NewTracer builds a tracer retaining at most capacity events
// (DefaultTraceCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit records an event. No-op on nil.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
		t.next++
		if t.next == cap(t.buf) {
			t.next = 0
		}
		t.wrapped = true
		t.overwritten++
	}
	t.mu.Unlock()
}

// Events returns the retained events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.wrapped {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return cap(t.buf)
}

// Overwritten returns how many events were lost to ring wraparound.
func (t *Tracer) Overwritten() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.overwritten
}

// Reset discards all retained events (the capacity is kept).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.next = 0
	t.wrapped = false
	t.overwritten = 0
	t.mu.Unlock()
}
