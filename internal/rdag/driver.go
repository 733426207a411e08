package rdag

import (
	"fmt"
	"math"

	"dagguise/internal/mem"
)

// RowRelation prescribes a slot's row-buffer behaviour (the §4.4
// row-buffer-aware extension).
type RowRelation uint8

const (
	// RowAny leaves the row unconstrained; the system must run a
	// closed-row policy to hide row state (the paper's base scheme).
	RowAny RowRelation = iota
	// RowHitSlot requires the request to hit the bank's open row.
	RowHitSlot
	// RowMissSlot requires the request to open a different row.
	RowMissSlot
)

// Slot is a request the defense rDAG prescribes the shaper to emit: a bank,
// a read/write tag, an optional row relation, and a token the shaper echoes
// back via Complete when the memory controller finishes serving the
// request.
type Slot struct {
	Token int
	Bank  int
	Kind  mem.Kind
	Row   RowRelation
}

// Driver is the runtime form of a defense rDAG executed by the shaper
// (§4.4's "rDAG computation logic"). Poll returns the slots whose timing
// dependencies are satisfied at cycle now; the shaper emits one request per
// slot (real if a matching one is queued, fake otherwise) and must call
// Complete with the slot's token when the request's response returns.
// Poll's slice is the driver's own and stays valid until the next Poll; a
// poll with nothing due returns nil.
type Driver interface {
	Poll(now uint64) []Slot
	// NextPoll returns the earliest cycle at which Poll could return a
	// slot (math.MaxUint64 while every slot awaits a completion). Only
	// Complete can make it earlier.
	NextPoll() uint64
	Complete(token int, now uint64)
	// Outstanding reports how many emitted slots have not completed.
	Outstanding() int
	Reset()
}

type seqState struct {
	waiting bool
	nextAt  uint64
	step    int
	count   int
}

// PatternDriver executes a Template as an infinite schedule: one state
// machine per parallel sequence, exactly matching the paper's hardware
// cost model (per sequence: a wait bit, a read/write bit, and a countdown
// to the next request).
type PatternDriver struct {
	tpl         Template
	writePeriod int
	seqs        []seqState
	due         []Slot // Poll's result, reused
	outstanding int
	emitted     uint64
	// nextPoll is NextPoll's answer, the earliest nextAt among the
	// sequences not waiting. Derived from seqs and never serialized:
	// Poll recomputes it, Complete lowers it, and Reset and RestoreState
	// rescan.
	nextPoll uint64
}

// NewPatternDriver builds a driver for the template.
func NewPatternDriver(tpl Template) (*PatternDriver, error) {
	if err := tpl.Validate(); err != nil {
		return nil, err
	}
	d := &PatternDriver{tpl: tpl, writePeriod: tpl.writePeriod()}
	d.seqs = make([]seqState, tpl.Sequences)
	d.nextPoll = d.scanNextPoll()
	return d, nil
}

// MustPatternDriver panics on template error.
func MustPatternDriver(tpl Template) *PatternDriver {
	d, err := NewPatternDriver(tpl)
	if err != nil {
		panic(err)
	}
	return d
}

// Template returns the template the driver executes.
func (d *PatternDriver) Template() Template { return d.tpl }

// Poll implements Driver. The token is the sequence index.
func (d *PatternDriver) Poll(now uint64) []Slot {
	if now < d.nextPoll {
		return nil
	}
	out := d.due[:0]
	next := uint64(math.MaxUint64)
	for i := range d.seqs {
		s := &d.seqs[i]
		if s.waiting {
			continue
		}
		if now < s.nextAt {
			next = min(next, s.nextAt)
			continue
		}
		bank := d.tpl.BankAt(i, s.step)
		kind := mem.Read
		if d.writePeriod > 0 && (s.count+1)%d.writePeriod == 0 {
			kind = mem.Write
		}
		row := RowAny
		if d.tpl.RowHitRatio > 0 {
			if d.tpl.RowHitAt(s.count) {
				row = RowHitSlot
			} else {
				row = RowMissSlot
			}
		}
		s.waiting = true
		d.outstanding++
		d.emitted++
		out = append(out, Slot{Token: i, Bank: bank, Kind: kind, Row: row})
	}
	d.nextPoll = next
	if len(out) == 0 {
		return nil
	}
	d.due = out
	return out
}

// NextPoll implements Driver: the earliest due cycle among the sequences
// not waiting on a response.
func (d *PatternDriver) NextPoll() uint64 { return d.nextPoll }

// scanNextPoll computes NextPoll from the sequences.
func (d *PatternDriver) scanNextPoll() uint64 {
	at := uint64(math.MaxUint64)
	for i := range d.seqs {
		if s := &d.seqs[i]; !s.waiting {
			at = min(at, s.nextAt)
		}
	}
	return at
}

// Complete implements Driver: the response for sequence token returned at
// cycle now, so its dependent request arrives Weight cycles later.
func (d *PatternDriver) Complete(token int, now uint64) {
	if token < 0 || token >= len(d.seqs) {
		panic(fmt.Sprintf("rdag: pattern driver has no sequence %d", token))
	}
	s := &d.seqs[token]
	if !s.waiting {
		panic(fmt.Sprintf("rdag: sequence %d completed while not waiting", token))
	}
	s.waiting = false
	s.step++
	s.count++
	s.nextAt = now + d.tpl.Weight
	d.nextPoll = min(d.nextPoll, s.nextAt)
	d.outstanding--
}

// Outstanding implements Driver.
func (d *PatternDriver) Outstanding() int { return d.outstanding }

// Emitted returns the cumulative number of slots emitted.
func (d *PatternDriver) Emitted() uint64 { return d.emitted }

// Reset implements Driver.
func (d *PatternDriver) Reset() {
	for i := range d.seqs {
		d.seqs[i] = seqState{}
	}
	d.outstanding = 0
	d.emitted = 0
	d.nextPoll = d.scanNextPoll()
}

// GraphDriver executes an arbitrary finite rDAG cyclically: when every
// vertex of an iteration has completed, the graph restarts with its roots
// arriving RestartWeight cycles after the last completion. This supports
// complex, irregular defense rDAGs beyond the template space ("expanding
// the rDAG search space", §6.2).
type GraphDriver struct {
	g             *Graph
	restartWeight uint64

	indeg       []int
	readyAt     []uint64
	emitted     []bool
	done        []bool
	due         []Slot // Poll's result, reused
	remaining   int
	outstanding int
}

// NewGraphDriver validates g and builds a cyclic driver over it.
func NewGraphDriver(g *Graph, restartWeight uint64) (*GraphDriver, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(g.Vertices) == 0 {
		return nil, fmt.Errorf("rdag: graph driver needs a non-empty graph")
	}
	d := &GraphDriver{g: g, restartWeight: restartWeight}
	d.indeg = make([]int, len(g.Vertices))
	d.readyAt = make([]uint64, len(g.Vertices))
	d.emitted = make([]bool, len(g.Vertices))
	d.done = make([]bool, len(g.Vertices))
	d.Reset()
	return d, nil
}

// Graph returns the underlying rDAG.
func (d *GraphDriver) Graph() *Graph { return d.g }

func (d *GraphDriver) restart(at uint64) {
	for i := range d.g.Vertices {
		d.indeg[i] = d.g.InDegree(VertexID(i))
		d.readyAt[i] = at
		d.emitted[i] = false
		d.done[i] = false
	}
	d.remaining = len(d.g.Vertices)
}

// Poll implements Driver. The token is the vertex ID.
func (d *GraphDriver) Poll(now uint64) []Slot {
	out := d.due[:0]
	for i, v := range d.g.Vertices {
		if d.emitted[i] || d.indeg[i] > 0 || now < d.readyAt[i] {
			continue
		}
		d.emitted[i] = true
		d.outstanding++
		out = append(out, Slot{Token: i, Bank: v.Bank, Kind: v.Kind})
	}
	if len(out) == 0 {
		return nil
	}
	d.due = out
	return out
}

// NextPoll implements Driver: the earliest ready cycle among the vertices
// whose predecessors have all completed and that are not yet emitted.
func (d *GraphDriver) NextPoll() uint64 {
	at := uint64(math.MaxUint64)
	for i := range d.g.Vertices {
		if !d.emitted[i] && d.indeg[i] == 0 {
			at = min(at, d.readyAt[i])
		}
	}
	return at
}

// Complete implements Driver.
func (d *GraphDriver) Complete(token int, now uint64) {
	if token < 0 || token >= len(d.g.Vertices) {
		panic(fmt.Sprintf("rdag: graph driver has no vertex %d", token))
	}
	if !d.emitted[token] || d.done[token] {
		panic(fmt.Sprintf("rdag: vertex %d completed in invalid state", token))
	}
	d.done[token] = true
	d.outstanding--
	d.remaining--
	for _, e := range d.g.Successors(VertexID(token)) {
		d.indeg[e.To]--
		if at := now + e.Weight; at > d.readyAt[e.To] {
			d.readyAt[e.To] = at
		}
	}
	if d.remaining == 0 {
		d.restart(now + d.restartWeight)
	}
}

// Outstanding implements Driver.
func (d *GraphDriver) Outstanding() int { return d.outstanding }

// Reset implements Driver.
func (d *GraphDriver) Reset() {
	d.outstanding = 0
	d.restart(0)
}
