package sched

import (
	"fmt"

	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/memctrl"
	"dagguise/internal/obs"
)

// TemporalPartitioning implements coarse time-sliced partitioning (Wang et
// al., HPCA'14): time is divided into fixed turns, each owned by one group.
// Within its turn a group enjoys unconstrained FR-FCFS scheduling; a dead
// time at the end of each turn stops new issues early enough that every
// transaction drains before the next turn begins, so no state crosses the
// turn boundary.
type TemporalPartitioning struct {
	groups []Group
	owners []members // membership of groups[k], by turn k mod len(groups)
	turn   uint64    // CPU cycles per turn
	dead   uint64    // no-issue window at the end of each turn
	inner  memctrl.FRFCFS
	stats  Stats
	mx     *obs.Registry // observability (nil = off); measurement only

	// Per-pick scratch, reused so a pick allocates nothing: the indices
	// of the turn owner's queue entries.
	idx []int

	refi, rfc uint64 // refresh guard, as in FixedService
}

// NewTemporalPartitioning builds a TP arbiter. turnDRAMCycles is the turn
// length in DRAM cycles (the original paper used 64-128); the dead time is
// derived from the worst-case transaction span.
func NewTemporalPartitioning(t config.DRAMTiming, groups []Group, turnDRAMCycles int) *TemporalPartitioning {
	if len(groups) == 0 {
		panic("sched: temporal partitioning needs at least one group")
	}
	if turnDRAMCycles <= 0 {
		turnDRAMCycles = 96
	}
	dead := uint64((t.TRP + t.TRCD + t.TCWD + t.TBURST + t.TWR + t.TWTR) * t.ClockRatio)
	turn := uint64(turnDRAMCycles * t.ClockRatio)
	if turn <= dead {
		turn = dead * 2
	}
	return &TemporalPartitioning{
		groups: groups, owners: membership(groups), turn: turn, dead: dead,
		refi: uint64(t.TREFI * t.ClockRatio),
		rfc:  uint64(t.TRFC * t.ClockRatio),
	}
}

// nearRefresh reports whether a transaction issued at now could overlap a
// periodic refresh window, in which case the issue is deferred for every
// domain alike so that refresh-displaced transactions cannot bleed into
// another group's turn.
func (tp *TemporalPartitioning) nearRefresh(now uint64) bool {
	if tp.refi == 0 {
		return false
	}
	k := now / tp.refi
	if k >= 1 {
		refStart := k * tp.refi
		if now < refStart+tp.rfc+tp.dead {
			return true
		}
	}
	return now+tp.dead > (k+1)*tp.refi
}

// Turn returns the turn length in CPU cycles.
func (tp *TemporalPartitioning) Turn() uint64 { return tp.turn }

// Name implements memctrl.Scheduler.
func (tp *TemporalPartitioning) Name() string { return "tp" }

// Stats returns turn usage counters (SlotsSeen counts issue opportunities).
func (tp *TemporalPartitioning) Stats() Stats { return tp.stats }

// Observe attaches an observability registry (nil = off); turn usage is
// mirrored there under the system-wide domain 0.
func (tp *TemporalPartitioning) Observe(mx *obs.Registry) { tp.mx = mx }

// Pick implements memctrl.Scheduler.
func (tp *TemporalPartitioning) Pick(q []memctrl.Entry, now uint64, dev *dram.Device) int {
	pos := now % tp.turn
	if pos >= tp.turn-tp.dead {
		return -1 // dead time: drain in-flight transactions
	}
	if tp.nearRefresh(now) {
		return -1
	}
	// Within the turn, FR-FCFS picks among the owner's entries only.
	owner := tp.owners[(now/tp.turn)%uint64(len(tp.owners))]
	tp.idx = tp.idx[:0]
	for i := range q {
		if owner.has(q[i].Req.Domain) {
			tp.idx = append(tp.idx, i)
		}
	}
	pick := tp.inner.PickAmong(q, tp.idx, now, dev)
	if pick < 0 {
		return -1
	}
	tp.stats.SlotsUsed++
	tp.mx.Inc(obs.CtrSlotsUsed, 0)
	return pick
}

// NextPick implements memctrl.Scheduler with a lower bound that needs no
// pick: the next turn start during dead time or when the owner has nothing
// queued, now near a refresh, and otherwise the earliest cycle a bank of
// one of the owner's transactions frees, capped at the next turn start. A
// pick that returns -1 changes nothing, so there is nothing to keep.
func (tp *TemporalPartitioning) NextPick(q []memctrl.Entry, now uint64, dev *dram.Device) uint64 {
	next := (now/tp.turn + 1) * tp.turn
	if now%tp.turn >= tp.turn-tp.dead {
		return next
	}
	if tp.nearRefresh(now) {
		return now
	}
	owner := tp.owners[(now/tp.turn)%uint64(len(tp.owners))]
	for i := range q {
		if owner.has(q[i].Req.Domain) {
			next = min(next, max(now, dev.BankBusyUntil(q[i].FlatBank)))
		}
	}
	return next
}

// String describes the arbiter.
func (tp *TemporalPartitioning) String() string {
	return fmt.Sprintf("tp{groups=%d turn=%d dead=%d}", len(tp.groups), tp.turn, tp.dead)
}
