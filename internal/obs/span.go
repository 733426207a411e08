package obs

import "sync"

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
// spans still allocate IDs and track openness, so parent IDs thread
// through a caller that retains no events).
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
