package memctrl

import (
	"fmt"

	"dagguise/internal/mem"
)

// CompletionSave mirrors one in-flight completion. The slice preserves the
// heap's backing-array order, which is itself a valid heap, so restoring it
// verbatim reproduces the exact pop order.
type CompletionSave struct {
	At   uint64       `json:"at"`
	Resp mem.Response `json:"resp"`
}

// DomainBytes is one domain's served-bytes counter. The state lists the
// domains that have been served, in ascending domain order.
type DomainBytes struct {
	Domain mem.Domain `json:"domain"`
	Bytes  uint64     `json:"bytes"`
}

// ControllerState is the controller's full mutable state. Coordinates,
// flat bank indices and per-domain occupancy are derived data, recomputed
// on restore from the queue.
type ControllerState struct {
	Queue    []mem.Request    `json:"queue"`
	Inflight []CompletionSave `json:"inflight"`
	Stats    Stats            `json:"stats"`
	ByDomain []DomainBytes    `json:"by_domain,omitempty"`
}

// SaveState captures the controller's full mutable state.
func (c *Controller) SaveState() ControllerState {
	st := ControllerState{Stats: c.stats}
	for _, e := range c.queue {
		st.Queue = append(st.Queue, e.Req)
	}
	for _, f := range c.inflight {
		st.Inflight = append(st.Inflight, CompletionSave{At: f.at, Resp: f.resp})
	}
	for d, b := range c.byDomain {
		if b != 0 {
			st.ByDomain = append(st.ByDomain, DomainBytes{Domain: mem.Domain(d), Bytes: b})
		}
	}
	return st
}

// RestoreState overwrites the controller's mutable state, recomputing every
// derived structure (decoded coordinates, flat bank indices, per-domain
// occupancy).
func (c *Controller) RestoreState(st ControllerState) error {
	if len(st.Queue) > c.capacity {
		return fmt.Errorf("memctrl: state queue depth %d exceeds capacity %d", len(st.Queue), c.capacity)
	}
	c.queue = c.queue[:0]
	clear(c.perDomain)
	for _, req := range st.Queue {
		if !c.Enqueue(req, req.Arrival) {
			return fmt.Errorf("memctrl: state holds more than %d queued requests for domain %d", c.domainCap, req.Domain)
		}
	}
	c.inflight = c.inflight[:0]
	for _, f := range st.Inflight {
		c.inflight = append(c.inflight, completion{at: f.At, resp: f.Resp})
	}
	c.stats = st.Stats
	clear(c.byDomain)
	for _, db := range st.ByDomain {
		*slot(&c.byDomain, db.Domain) = db.Bytes
	}
	return nil
}
