// Package sched implements the secure memory scheduling baselines the
// paper compares against: Fixed Service and its Bank-Triple-Alternation
// variant (Shafiee et al., MICRO'15) and Temporal Partitioning (Wang et
// al., HPCA'14). All are memctrl.Scheduler implementations that constrain
// when each security domain's transactions may be committed so that no
// domain's timing can be influenced by another's traffic.
package sched

import (
	"fmt"
	"slices"

	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/obs"
)

// Group is a set of domains that share scheduling slots. Each protected
// domain must be alone in its group; mutually trusting applications (e.g.
// the unprotected SPEC co-runners) may share one group, which lets them
// flexibly use the group's slots (§6.3).
type Group []mem.Domain

// members is a group as a domain-indexed membership table, so a pick
// tests each queue entry's domain in O(1).
type members []bool

func (m members) has(d mem.Domain) bool { return int(d) < len(m) && m[d] }

// membership builds the table of each rotation position's group, once per
// arbiter. Positions holding equal groups share one table: buildGroups
// repeats the unprotected domains' group once per unprotected domain.
func membership(groups []Group) []members {
	out := make([]members, len(groups))
	for i, g := range groups {
		for j := range i {
			if slices.Equal(groups[j], g) {
				out[i] = out[j]
				break
			}
		}
		if out[i] != nil {
			continue
		}
		width := 0
		for _, d := range g {
			width = max(width, int(d)+1)
		}
		out[i] = make(members, width)
		for _, d := range g {
			out[i][d] = true
		}
	}
	return out
}

// FixedService implements FS and FS-BTA slotted arbitration. Time is
// divided into fixed slots; slot s is owned by group s mod len(groups)
// (round-robin, no-skip: an unused slot is wasted, never donated). At most
// one transaction issues per slot, exactly at the slot boundary, so the
// schedule of issue opportunities is completely input-independent.
//
// With BankGroups == 1 this is plain FS: consecutive slots may target the
// same bank, so the stride must cover a full bank cycle (tRC). With
// BankGroups == 3 it is FS-BTA: slot s may only serve banks b with
// b mod 3 == s mod 3, allowing a 3x shorter stride since a given bank can
// only be used every third slot.
type FixedService struct {
	groups     []Group
	owners     []members // membership of groups[s], by rotation position s
	stride     uint64    // CPU cycles per slot
	bankGroups int

	// Refresh avoidance: slots whose transaction could collide with a
	// periodic refresh window are skipped for every group alike.
	refi, rfc, guard uint64

	curSlot uint64
	issued  bool
	stats   Stats
	mx      *obs.Registry // observability (nil = off); measurement only
}

// Stats counts slot usage for utilisation reporting.
type Stats struct {
	SlotsSeen   uint64
	SlotsUsed   uint64
	SlotsWasted uint64 // owned slots with no eligible request
}

// strideFor computes the minimal safe slot stride in CPU cycles for the
// given bank-group count, from the DRAM timing parameters:
//
//   - a bank recurs every bankGroups slots, so bankGroups*stride >= tRC;
//   - a write in slot s must not delay a read in slot s+1, so
//     stride + tRCD >= tRCD + tCWD + tBURST + tWTR.
func strideFor(t config.DRAMTiming, bankGroups int) uint64 {
	rcPart := (t.TRC + bankGroups - 1) / bankGroups
	wtrPart := t.TCWD + t.TBURST + t.TWTR
	stride := rcPart
	if wtrPart > stride {
		stride = wtrPart
	}
	if t.TBURST > stride {
		stride = t.TBURST
	}
	return uint64(stride * t.ClockRatio)
}

// NewFixedService builds a plain FS arbiter (bank group count 1).
func NewFixedService(t config.DRAMTiming, groups []Group) *FixedService {
	return newFS(t, groups, 1)
}

// NewFSBTA builds the Bank Triple Alternation variant.
func NewFSBTA(t config.DRAMTiming, groups []Group) *FixedService {
	return newFS(t, groups, 3)
}

// NewFSBTAWithStride builds FS-BTA with an explicit slot stride in DRAM
// cycles, overriding the hazard-safe derivation. The paper's FS-BTA uses
// the aggressive tRC/3 stride (13 cycles for DDR3-1600); our default adds
// the write-to-read turnaround margin (18 cycles) because the shorter
// stride lets a victim's write delay the next slot's read by a few cycles
// — a real, measurable leak (see TestAggressiveBTAStrideLeaks). Use this
// constructor for performance sensitivity studies only.
func NewFSBTAWithStride(t config.DRAMTiming, groups []Group, strideDRAMCycles int) *FixedService {
	f := newFS(t, groups, 3)
	if strideDRAMCycles > 0 {
		f.stride = uint64(strideDRAMCycles * t.ClockRatio)
	}
	return f
}

func newFS(t config.DRAMTiming, groups []Group, bankGroups int) *FixedService {
	if len(groups) == 0 {
		panic("sched: fixed service needs at least one group")
	}
	f := &FixedService{
		groups:     groups,
		owners:     membership(groups),
		stride:     strideFor(t, bankGroups),
		bankGroups: bankGroups,
		refi:       uint64(t.TREFI * t.ClockRatio),
		rfc:        uint64(t.TRFC * t.ClockRatio),
	}
	// A slot is unsafe if its transaction could still be using the bank
	// or bus when a refresh begins; guard by the worst-case transaction
	// span.
	f.guard = uint64((t.TRCD + t.TCWD + t.TBURST + t.TWR) * t.ClockRatio)
	return f
}

// Stride returns the slot stride in CPU cycles.
func (f *FixedService) Stride() uint64 { return f.stride }

// Name implements memctrl.Scheduler.
func (f *FixedService) Name() string {
	if f.bankGroups > 1 {
		return "fs-bta"
	}
	return "fs"
}

// Stats returns slot usage counters.
func (f *FixedService) Stats() Stats { return f.stats }

// Observe attaches an observability registry (nil = off); slot usage is
// mirrored there under the system-wide domain 0.
func (f *FixedService) Observe(mx *obs.Registry) { f.mx = mx }

// slotBlockedByRefresh reports whether a transaction issued at slotStart
// could overlap a refresh window. The refresh schedule is periodic and
// input-independent, so skipping is identical for all domains.
func (f *FixedService) slotBlockedByRefresh(slotStart uint64) bool {
	if f.refi == 0 {
		return false
	}
	// Refresh k occupies [k*refi, k*refi+rfc), k >= 1.
	k := slotStart / f.refi
	if k >= 1 {
		refStart := k * f.refi
		refEnd := refStart + f.rfc
		if slotStart < refEnd && slotStart+f.guard+f.stride > refStart {
			return true
		}
	}
	// Also guard against running into the next refresh start.
	next := (k + 1) * f.refi
	return slotStart+f.guard+f.stride > next
}

// Pick implements memctrl.Scheduler. Only the cycle at the slot boundary
// can issue, guaranteeing an input-independent command schedule.
func (f *FixedService) Pick(q []memctrl.Entry, now uint64, dev *dram.Device) int {
	slot := f.roll(now)
	if now%f.stride != 0 || f.issued {
		return -1
	}
	f.stats.SlotsSeen++
	f.mx.Inc(obs.CtrSlotsSeen, 0)
	if f.slotBlockedByRefresh(now) {
		return -1
	}
	owner := f.owners[slot%uint64(len(f.owners))]
	bankGroup := int(slot % uint64(f.bankGroups))
	for i := range q {
		e := &q[i]
		if !owner.has(e.Req.Domain) {
			continue
		}
		if f.bankGroups > 1 && e.Coord.Bank%f.bankGroups != bankGroup {
			continue
		}
		if dev.BankBusyUntil(e.FlatBank) > now {
			continue
		}
		f.issued = true
		f.stats.SlotsUsed++
		f.mx.Inc(obs.CtrSlotsUsed, 0)
		return i
	}
	f.stats.SlotsWasted++
	f.mx.Inc(obs.CtrSlotsWasted, 0)
	return -1
}

// roll enters the slot holding now, clearing the issued flag when it is a
// new slot, and returns the slot index.
func (f *FixedService) roll(now uint64) uint64 {
	slot := now / f.stride
	if slot != f.curSlot {
		f.curSlot = slot
		f.issued = false
	}
	return slot
}

// NextPick implements memctrl.Scheduler: the next slot boundary Pick has
// not yet served, since only a boundary can count or issue. It enters
// now's slot as Pick at now would; every later cycle before the boundary
// lies in the same slot, so their picks would change nothing more.
func (f *FixedService) NextPick(q []memctrl.Entry, now uint64, dev *dram.Device) uint64 {
	slot := f.roll(now)
	if now%f.stride == 0 && !f.issued {
		return now
	}
	return (slot + 1) * f.stride
}

// String describes the arbiter.
func (f *FixedService) String() string {
	return fmt.Sprintf("%s{groups=%d stride=%d}", f.Name(), len(f.groups), f.stride)
}
