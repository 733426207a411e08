package obs

import (
	"strconv"
	"strings"
	"sync"
)

// Spans is the flight recorder's structured-span layer: request-scoped
// begin/end pairs with deterministic IDs and parent/child nesting,
// recorded as EvSpanBegin/EvSpanEnd events into a ring Tracer. Like
// every collector in this package it is nil-no-op (all methods are
// safe on a nil receiver and cost one predictable branch), and it is
// measurement-only: nothing in the simulator ever reads it back, so
// shaped egress stays bit-identical with spans on or off.
//
// IDs are allocated from a monotonic counter, never from wall clock or
// randomness, so a run produces the same span IDs every time.
type Spans struct {
	mu   sync.Mutex
	tr   *Tracer
	next uint64
	open map[uint64]Event // begin event of each span not yet ended
}

// NewSpans builds a span recorder emitting into tr (which may be nil:
// spans still allocate IDs and track openness, useful for propagation
// without local retention).
func NewSpans(tr *Tracer) *Spans {
	return &Spans{tr: tr, next: 1, open: make(map[uint64]Event)}
}

// Begin opens a span named name under parent (0 = root) at cycle now on
// lane (comp, index, domain), returning its ID. Returns 0 on nil.
func (s *Spans) Begin(name string, comp Component, index, domain int32, parent, now uint64) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	id := s.next
	s.next++
	ev := Event{Cycle: now, Span: id, Parent: parent, Name: name, Comp: comp, Kind: EvSpanBegin, Index: index, Domain: domain}
	s.open[id] = ev
	s.mu.Unlock()
	s.tr.Emit(ev)
	return id
}

// End closes span id at cycle now. Unknown or zero IDs are ignored, so
// callers may End unconditionally on paths where Begin was skipped.
func (s *Spans) End(id, now uint64) {
	if s == nil || id == 0 {
		return
	}
	s.mu.Lock()
	ev, ok := s.open[id]
	if ok {
		delete(s.open, id)
	}
	s.mu.Unlock()
	if !ok {
		return
	}
	ev.Cycle, ev.Kind = now, EvSpanEnd
	s.tr.Emit(ev)
}

// SpanHeader is the HTTP header carrying a span context across process
// boundaries (auditd client -> auditd ingest).
const SpanHeader = "X-Dag-Span"

// SpanContext is a propagated parent reference: the remote span ID and
// the name of the trace it belongs to.
type SpanContext struct {
	Span uint64
	Name string
}

// Encode renders the context for the SpanHeader value.
func (c SpanContext) Encode() string {
	if c.Span == 0 {
		return ""
	}
	if c.Name == "" {
		return strconv.FormatUint(c.Span, 10)
	}
	return strconv.FormatUint(c.Span, 10) + ";" + c.Name
}

// ParseSpanContext decodes a SpanHeader value. Empty or malformed
// values return the zero context (span 0 = no parent), never an error:
// a bad header must not fail an ingest.
func ParseSpanContext(v string) SpanContext {
	if v == "" {
		return SpanContext{}
	}
	name := ""
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v, name = v[:i], v[i+1:]
	}
	id, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return SpanContext{}
	}
	return SpanContext{Span: id, Name: name}
}
