// Package trace defines the program-trace representation consumed by the
// trace-driven core model: a sequence of memory operations, each annotated
// with the number of non-memory instructions preceding it and an optional
// dependency on an earlier operation. Traces substitute for gem5's
// execution-driven cores (see DESIGN.md): they preserve exactly what the
// evaluation needs — bandwidth demand, memory-level parallelism and
// latency sensitivity.
package trace

import "dagguise/internal/mem"

// Op is one memory operation.
type Op struct {
	// Addr is the byte address accessed (the cache model aligns it).
	Addr uint64
	// Kind is Read (load) or Write (store).
	Kind mem.Kind
	// Gap is the number of non-memory instructions executed since the
	// previous memory operation.
	Gap int
	// Dep, when positive, says this op may not begin until the op Dep
	// positions earlier has completed (pointer-chasing serialisation).
	// Zero means the op is independent and can overlap earlier misses.
	Dep int
}

// Source yields the ops of one program. Implementations must be
// deterministic for a given construction.
type Source interface {
	// Next returns the next op. ok is false when the trace is exhausted;
	// infinite sources never return false.
	Next() (op Op, ok bool)
	// Reset rewinds the source to its beginning.
	Reset()
}

// Slice is a finite in-memory trace.
type Slice struct {
	Ops []Op
	pos int
}

// Next implements Source.
func (s *Slice) Next() (Op, bool) {
	if s.pos >= len(s.Ops) {
		return Op{}, false
	}
	op := s.Ops[s.pos]
	s.pos++
	return op, true
}

// Reset implements Source.
func (s *Slice) Reset() { s.pos = 0 }

// Loop wraps a finite source into an infinite one by resetting it on
// exhaustion. Wraps of an empty source return false to avoid spinning.
type Loop struct {
	Inner Source
	// Wraps counts completed passes.
	Wraps uint64
}

// Next implements Source.
func (l *Loop) Next() (Op, bool) {
	op, ok := l.Inner.Next()
	if ok {
		return op, true
	}
	l.Inner.Reset()
	l.Wraps++
	op, ok = l.Inner.Next()
	return op, ok
}

// Reset implements Source.
func (l *Loop) Reset() {
	l.Inner.Reset()
	l.Wraps = 0
}

// Recorder collects ops emitted by an instrumented application (the victim
// implementations in internal/victim record through one of these).
type Recorder struct {
	ops []Op
	gap int
}

// NewRecorder builds an empty recorder. Dependencies are recorded only
// where the application says so (LoadDep).
func NewRecorder() *Recorder { return &Recorder{} }

// Grow reserves room for n more ops, so an application that knows how
// many it records appends them without growth copies.
func (r *Recorder) Grow(n int) {
	if cap(r.ops)-len(r.ops) < n {
		r.ops = append(make([]Op, 0, len(r.ops)+n), r.ops...)
	}
}

// Compute records n non-memory instructions.
func (r *Recorder) Compute(n int) { r.gap += n }

// Load records a read of addr.
func (r *Recorder) Load(addr uint64) { r.access(addr, mem.Read, 0) }

// Store records a write of addr.
func (r *Recorder) Store(addr uint64) { r.access(addr, mem.Write, 0) }

// LoadDep records a read whose address depended on the value of the
// previous memory operation (a serialised, pointer-chased load).
func (r *Recorder) LoadDep(addr uint64) { r.access(addr, mem.Read, 1) }

func (r *Recorder) access(addr uint64, kind mem.Kind, dep int) {
	r.ops = append(r.ops, Op{Addr: addr, Kind: kind, Gap: r.gap, Dep: dep})
	r.gap = 0
}

// Trace returns the recorded trace.
func (r *Recorder) Trace() *Slice { return &Slice{Ops: r.ops} }

// Len returns the number of recorded ops.
func (r *Recorder) Len() int { return len(r.ops) }
