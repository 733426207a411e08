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
	if !anyBankFree(dev, now) {
		return -1
	}
	writes := 0
	for i := 0; p.WritePressure > 0 && i < len(q); i++ {
		if q[i].Req.Kind == mem.Write {
			writes++
		}
	}
	ageCap, drainWrites := p.limits(writes)
	best, bestRank := -1, noRank
	for i := range q {
		e := &q[i]
		if dev.BankBusyUntil(e.FlatBank) > now || drainWrites && e.Req.Kind != mem.Write {
			continue
		}
		if r := rank(e, now, ageCap, dev); r < bestRank {
			best, bestRank = i, r
			if r == 0 {
				break
			}
		}
	}
	return best
}

// PickAmong is Pick over a queue that holds only the entries q[i] for i in
// idx, an ascending index list, without copying them: it returns the
// index into q of the entry Pick would choose there, or -1. Write pressure
// counts those entries' writes only, and ties go to the oldest as in Pick.
// Pick keeps its own loop over q, which an index list would slow down.
func (p FRFCFS) PickAmong(q []Entry, idx []int, now uint64, dev *dram.Device) int {
	if len(idx) == 0 || !anyBankFree(dev, now) {
		return -1
	}
	writes := 0
	for k := 0; p.WritePressure > 0 && k < len(idx); k++ {
		if q[idx[k]].Req.Kind == mem.Write {
			writes++
		}
	}
	ageCap, drainWrites := p.limits(writes)
	best, bestRank := -1, noRank
	for _, i := range idx {
		e := &q[i]
		if dev.BankBusyUntil(e.FlatBank) > now || drainWrites && e.Req.Kind != mem.Write {
			continue
		}
		if r := rank(e, now, ageCap, dev); r < bestRank {
			best, bestRank = i, r
			if r == 0 {
				break
			}
		}
	}
	return best
}

// anyBankFree reports whether some bank is free at now. A deep queue
// usually finds every bank busy, so a pick checks the banks first.
func anyBankFree(dev *dram.Device, now uint64) bool {
	for b := 0; b < dev.Banks(); b++ {
		if dev.BankBusyUntil(b) <= now {
			return true
		}
	}
	return false
}

// limits returns the age cap in force and whether writes drain, given the
// number of queued writes.
func (p FRFCFS) limits(writes int) (ageCap uint64, drainWrites bool) {
	ageCap = p.AgeCap
	if ageCap == 0 {
		ageCap = defaultAgeCap
	}
	return ageCap, p.WritePressure > 0 && writes >= p.WritePressure
}

// noRank is worse than every rank an entry that may issue gets.
const noRank = 5

// rank returns the candidate rank of e, whose bank is free, at now, best
// first: starved (over the age cap), demand row-hit, demand, prefetch
// row-hit, prefetch. A pick takes the first entry of the best rank, so
// ties go to the oldest.
func rank(e *Entry, now, ageCap uint64, dev *dram.Device) int {
	if age := now - e.Req.Arrival; age > ageCap && (!e.Req.Prefetch || age > 4*ageCap) {
		return 0
	}
	r := 2
	if e.Req.Prefetch {
		r = 4
	}
	if dev.RowOpen(e.FlatBank, e.Coord.Row) {
		r--
	}
	return r
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
