package rdag

import "fmt"

// SeqSave is the serializable state of one PatternDriver sequence machine.
type SeqSave struct {
	Waiting bool   `json:"waiting"`
	NextAt  uint64 `json:"next_at"`
	Step    int    `json:"step"`
	Count   int    `json:"count"`
}

// DriverState is the serializable runtime position of a defense-rDAG
// driver — a tagged union over the two driver kinds. The template/graph
// itself is configuration, rebuilt by the constructor.
type DriverState struct {
	Kind        string `json:"kind"`
	Outstanding int    `json:"outstanding"`

	// PatternDriver fields.
	Seqs    []SeqSave `json:"seqs,omitempty"`
	Emitted uint64    `json:"emitted,omitempty"`

	// GraphDriver fields.
	Indeg     []int    `json:"indeg,omitempty"`
	ReadyAt   []uint64 `json:"ready_at,omitempty"`
	Issued    []bool   `json:"issued,omitempty"`
	Done      []bool   `json:"done,omitempty"`
	Remaining int      `json:"remaining,omitempty"`
}

// StatefulDriver is a Driver whose rDAG position can be checkpointed.
type StatefulDriver interface {
	Driver
	SaveState() DriverState
	RestoreState(DriverState) error
}

// SaveState implements StatefulDriver.
func (d *PatternDriver) SaveState() DriverState {
	st := DriverState{Kind: "pattern", Outstanding: d.outstanding, Emitted: d.emitted}
	st.Seqs = make([]SeqSave, len(d.seqs))
	for i, s := range d.seqs {
		st.Seqs[i] = SeqSave{Waiting: s.waiting, NextAt: s.nextAt, Step: s.step, Count: s.count}
	}
	return st
}

// RestoreState implements StatefulDriver.
func (d *PatternDriver) RestoreState(st DriverState) error {
	if st.Kind != "pattern" {
		return fmt.Errorf("rdag: restoring %q state into a pattern driver", st.Kind)
	}
	if len(st.Seqs) != len(d.seqs) {
		return fmt.Errorf("rdag: state holds %d sequences, driver has %d", len(st.Seqs), len(d.seqs))
	}
	for i, s := range st.Seqs {
		d.seqs[i] = seqState{waiting: s.Waiting, nextAt: s.NextAt, step: s.Step, count: s.Count}
	}
	d.outstanding = st.Outstanding
	d.emitted = st.Emitted
	d.nextPoll = d.scanNextPoll()
	return nil
}

// SaveState implements StatefulDriver.
func (d *GraphDriver) SaveState() DriverState {
	st := DriverState{
		Kind:        "graph",
		Outstanding: d.outstanding,
		Remaining:   d.remaining,
		Indeg:       append([]int(nil), d.indeg...),
		ReadyAt:     append([]uint64(nil), d.readyAt...),
		Issued:      append([]bool(nil), d.emitted...),
		Done:        append([]bool(nil), d.done...),
	}
	return st
}

// RestoreState implements StatefulDriver.
func (d *GraphDriver) RestoreState(st DriverState) error {
	if st.Kind != "graph" {
		return fmt.Errorf("rdag: restoring %q state into a graph driver", st.Kind)
	}
	n := len(d.g.Vertices)
	if len(st.Indeg) != n || len(st.ReadyAt) != n || len(st.Issued) != n || len(st.Done) != n {
		return fmt.Errorf("rdag: state shape does not match %d-vertex graph", n)
	}
	copy(d.indeg, st.Indeg)
	copy(d.readyAt, st.ReadyAt)
	copy(d.emitted, st.Issued)
	copy(d.done, st.Done)
	d.remaining = st.Remaining
	d.outstanding = st.Outstanding
	return nil
}
