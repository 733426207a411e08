package memctrl

import (
	"math"

	"dagguise/internal/dram"
	"dagguise/internal/mem"
)

// FCFS is strict first-come-first-served scheduling: only the oldest
// transaction may issue, and only once its bank is free. This is the policy
// used by the simplified memory controller of the formal model (§5.1).
type FCFS struct{}

// Name implements Scheduler.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Scheduler.
func (FCFS) Pick(q []Entry, now uint64, dev *dram.Device) int {
	if len(q) == 0 {
		return -1
	}
	if dev.BankBusyUntil(q[0].FlatBank) > now {
		return -1
	}
	return 0
}

// NextPick implements Scheduler: the oldest transaction's bank-free cycle.
func (FCFS) NextPick(q []Entry, now uint64, dev *dram.Device) uint64 {
	return dev.BankBusyUntil(q[0].FlatBank)
}

// FRFCFS is first-ready FCFS, the insecure baseline policy: among
// transactions whose bank is free it prefers row-buffer hits, breaking ties
// by age; if no row hit is ready it issues the oldest ready transaction.
type FRFCFS struct {
	// WritePressure optionally prioritises writes when more than this many
	// are queued, modelling write-buffer draining. Zero disables it.
	WritePressure int
	// AgeCap bounds reordering: a ready demand request older than this
	// many cycles is served first regardless of row-hit status, the
	// standard FR-FCFS starvation guard. Zero selects the default.
	AgeCap uint64
}

// defaultAgeCap bounds FR-FCFS reordering (CPU cycles).
const defaultAgeCap = 1500

// Name implements Scheduler.
func (FRFCFS) Name() string { return "fr-fcfs" }

// Pick implements Scheduler. Demand traffic outranks prefetch traffic;
// within each class, row hits outrank older requests.
func (p FRFCFS) Pick(q []Entry, now uint64, dev *dram.Device) int {
	// A deep queue usually finds every bank busy: check the banks first.
	free := false
	for b := 0; b < dev.Banks() && !free; b++ {
		free = dev.BankBusyUntil(b) <= now
	}
	if !free {
		return -1
	}
	writes := 0
	for i := 0; p.WritePressure > 0 && i < len(q); i++ {
		if q[i].Req.Kind == mem.Write {
			writes++
		}
	}
	drainWrites := p.WritePressure > 0 && writes >= p.WritePressure
	ageCap := p.AgeCap
	if ageCap == 0 {
		ageCap = defaultAgeCap
	}
	// Candidate ranks, best first: starved (over the age cap), demand
	// row-hit, demand, prefetch row-hit, prefetch. Ties go to the oldest.
	best := -1
	bestRank := 5
	for i := range q {
		e := &q[i]
		if dev.BankBusyUntil(e.FlatBank) > now {
			continue
		}
		if drainWrites && e.Req.Kind != mem.Write {
			continue
		}
		rank := 2
		if e.Req.Prefetch {
			rank = 4
		}
		if dev.RowOpen(e.FlatBank, e.Coord.Row) {
			rank--
		}
		age := now - e.Req.Arrival
		if age > ageCap && (!e.Req.Prefetch || age > 4*ageCap) {
			rank = 0
		}
		if rank < bestRank {
			bestRank = rank
			best = i
			if rank == 0 {
				break
			}
		}
	}
	return best
}

// NextPick implements Scheduler: the earliest bank-free cycle among the
// queued transactions, since Pick issues only to a free bank. As in Pick,
// a deep queue usually finds every bank busy, and then the earliest bank
// to free bounds every entry without a queue scan; otherwise the scan
// stops at the first queued bank already free.
func (FRFCFS) NextPick(q []Entry, now uint64, dev *dram.Device) uint64 {
	at := uint64(math.MaxUint64)
	for b := 0; b < dev.Banks(); b++ {
		at = min(at, dev.BankBusyUntil(b))
	}
	if at > now {
		return at
	}
	at = math.MaxUint64
	for i := range q {
		if free := dev.BankBusyUntil(q[i].FlatBank); free < at {
			if free <= now {
				return now
			}
			at = free
		}
	}
	return at
}
