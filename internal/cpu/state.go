package cpu

import (
	"fmt"
	"sort"

	"dagguise/internal/cache"
	"dagguise/internal/trace"
)

// SlotState mirrors one ROB window slot.
type SlotState struct {
	Op         trace.Op `json:"op"`
	Seq        uint64   `json:"seq"`
	Status     int      `json:"status"`
	Completion uint64   `json:"completion"`
	ReqID      uint64   `json:"req_id"`
	GapLeft    int      `json:"gap_left"`
}

// PairU64 is one entry of a uint64-keyed map, stored as a sorted pair list
// so the serialized form never depends on map iteration order.
type PairU64 struct {
	K uint64 `json:"k"`
	V uint64 `json:"v"`
}

// StreamSave mirrors one prefetcher stream entry.
type StreamSave struct {
	Next    uint64 `json:"next"`
	Ahead   uint64 `json:"ahead"`
	Hits    int    `json:"hits"`
	LastUse uint64 `json:"last_use"`
}

// PrefetcherState mirrors the stream table (nil when prefetching is off).
type PrefetcherState struct {
	Streams []StreamSave `json:"streams"`
	Clock   uint64       `json:"clock"`
}

// CoreState is the core's full mutable state: the instruction window, MSHR
// tracking, writeback and prefetch queues, the trace-source cursor and the
// private cache hierarchy.
type CoreState struct {
	Window      []SlotState          `json:"window,omitempty"`
	BaseSeq     uint64               `json:"base_seq"`
	NextSeq     uint64               `json:"next_seq"`
	InstCount   int                  `json:"inst_count"`
	Outstanding int                  `json:"outstanding"`
	Reads       []PairU64            `json:"reads,omitempty"`
	WBQueue     []uint64             `json:"wb_queue,omitempty"`
	PfPending   []uint64             `json:"pf_pending,omitempty"`
	FillPending []uint64             `json:"fill_pending,omitempty"`
	PfInMem     []PairU64            `json:"pf_in_mem,omitempty"`
	PfIssued    []uint64             `json:"pf_issued,omitempty"`
	Exhausted   bool                 `json:"exhausted"`
	Stats       Stats                `json:"stats"`
	Prefetch    *PrefetcherState     `json:"prefetch,omitempty"`
	Source      trace.SourceState    `json:"source"`
	Cache       cache.HierarchyState `json:"cache"`
}

func sortedPairs(m map[uint64]uint64) []PairU64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]PairU64, 0, len(m))
	for k, v := range m {
		out = append(out, PairU64{K: k, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// SaveState captures the core's full mutable state. The trace source must
// be checkpointable (implement trace.Stateful).
func (c *Core) SaveState() (CoreState, error) {
	src, ok := c.src.(trace.Stateful)
	if !ok {
		return CoreState{}, fmt.Errorf("cpu: domain %d trace source %T is not checkpointable", c.domain, c.src)
	}
	st := CoreState{
		BaseSeq:     c.baseSeq,
		NextSeq:     c.nextSeq,
		InstCount:   c.instCount,
		Outstanding: c.outstanding,
		Reads:       sortedPairs(c.reads),
		WBQueue:     append([]uint64(nil), c.wbQueue...),
		PfPending:   append([]uint64(nil), c.pfPending...),
		FillPending: append([]uint64(nil), c.fillPending...),
		PfInMem:     sortedPairs(c.pfInMem),
		Exhausted:   c.exhausted,
		Stats:       c.stats,
		Source:      src.SaveState(),
		Cache:       c.hier.SaveState(),
	}
	for _, s := range c.window {
		st.Window = append(st.Window, SlotState{
			Op: s.op, Seq: s.seq, Status: int(s.status),
			Completion: s.completion, ReqID: s.reqID, GapLeft: s.gapLeft,
		})
	}
	for line := range c.pfIssued {
		st.PfIssued = append(st.PfIssued, line)
	}
	sort.Slice(st.PfIssued, func(i, j int) bool { return st.PfIssued[i] < st.PfIssued[j] })
	if c.pf != nil {
		ps := &PrefetcherState{Clock: c.pf.clock}
		for _, s := range c.pf.streams {
			ps.Streams = append(ps.Streams, StreamSave{Next: s.next, Ahead: s.ahead, Hits: s.hits, LastUse: s.lastUse})
		}
		st.Prefetch = ps
	}
	return st, nil
}

// RestoreState overwrites the core's mutable state. The core must have been
// built with the same configuration and an equivalent trace source.
func (c *Core) RestoreState(st CoreState) error {
	src, ok := c.src.(trace.Stateful)
	if !ok {
		return fmt.Errorf("cpu: domain %d trace source %T is not checkpointable", c.domain, c.src)
	}
	if err := src.RestoreState(st.Source); err != nil {
		return fmt.Errorf("cpu: domain %d trace source: %w", c.domain, err)
	}
	if err := c.hier.RestoreState(st.Cache); err != nil {
		return fmt.Errorf("cpu: domain %d cache: %w", c.domain, err)
	}
	if (c.pf == nil) != (st.Prefetch == nil) {
		return fmt.Errorf("cpu: domain %d prefetcher presence does not match state", c.domain)
	}
	if c.pf != nil {
		if len(st.Prefetch.Streams) != len(c.pf.streams) {
			return fmt.Errorf("cpu: domain %d state holds %d prefetch streams, core has %d",
				c.domain, len(st.Prefetch.Streams), len(c.pf.streams))
		}
		for i, s := range st.Prefetch.Streams {
			c.pf.streams[i] = stream{next: s.Next, ahead: s.Ahead, hits: s.Hits, lastUse: s.LastUse}
		}
		c.pf.clock = st.Prefetch.Clock
	}
	c.window = c.buf[:0]
	for _, s := range st.Window {
		c.push(slot{
			op: s.Op, seq: s.Seq, status: opStatus(s.Status),
			completion: s.Completion, reqID: s.ReqID, gapLeft: s.GapLeft,
		})
	}
	c.baseSeq = st.BaseSeq
	c.nextSeq = st.NextSeq
	c.instCount = st.InstCount
	c.outstanding = st.Outstanding
	c.reads = make(map[uint64]uint64, len(st.Reads))
	for _, p := range st.Reads {
		c.reads[p.K] = p.V
	}
	c.wbQueue = append(c.wbQueue[:0], st.WBQueue...)
	c.pfPending = append(c.pfPending[:0], st.PfPending...)
	c.fillPending = append(c.fillPending[:0], st.FillPending...)
	c.pfInMem = make(map[uint64]uint64, len(st.PfInMem))
	for _, p := range st.PfInMem {
		c.pfInMem[p.K] = p.V
	}
	c.pfIssued = make(map[uint64]bool, len(st.PfIssued))
	for _, line := range st.PfIssued {
		c.pfIssued[line] = true
	}
	c.exhausted = st.Exhausted
	c.stats = st.Stats
	c.parked, c.retiring = false, false
	return nil
}
