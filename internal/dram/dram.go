// Package dram implements a transaction-level DDR3 DRAM device model that
// enforces the Table 2 timing constraints: per-bank row-buffer state with
// tRC/tRCD/tRAS/tRP/tRTP/tWR, per-rank tRRD and tFAW activation windows and
// tREFI/tRFC refresh, and per-channel data-bus occupancy with tBURST, tCCD
// and tWTR turnarounds.
//
// The model serves whole transactions (a read or write of one cache line)
// rather than individual DRAM commands: when the memory controller commits a
// transaction the device computes the earliest legal schedule of the implied
// PRE/ACT/RD/WR commands, updates its state and reports when the data burst
// completes. This reproduces every contention source exploited by memory
// timing side channels — bank conflicts, row-buffer hits/misses/conflicts,
// and shared-bus delays — while remaining fast enough to sweep the paper's
// full evaluation.
package dram

import (
	"fmt"

	"dagguise/internal/config"
	"dagguise/internal/mem"
	"dagguise/internal/obs"
)

// Timing is config.DRAMTiming converted to CPU cycles.
type Timing struct {
	RC, RCD, RAS, FAW, WR, RP, RTRS, CAS, CWD, RTP, Burst, CCD, WTR, RRD uint64
	REFI, RFC                                                            uint64
}

func convert(t config.DRAMTiming) Timing {
	c := func(v int) uint64 { return uint64(v * t.ClockRatio) }
	return Timing{
		RC: c(t.TRC), RCD: c(t.TRCD), RAS: c(t.TRAS), FAW: c(t.TFAW),
		WR: c(t.TWR), RP: c(t.TRP), RTRS: c(t.TRTRS), CAS: c(t.TCAS),
		CWD: c(t.TCWD), RTP: c(t.TRTP), Burst: c(t.TBURST), CCD: c(t.TCCD),
		WTR: c(t.TWTR), RRD: c(t.TRRD), REFI: c(t.TREFI), RFC: c(t.TRFC),
	}
}

type bankState struct {
	rowOpen   bool
	openRow   uint64
	nextAct   uint64 // earliest cycle the next ACT may issue
	nextRead  uint64 // earliest cycle the next RD may issue
	nextWrite uint64 // earliest cycle the next WR may issue
	nextPre   uint64 // earliest cycle the next PRE may issue
	busyUntil uint64 // transaction-granularity occupancy
}

type rankState struct {
	actWindow   [4]uint64 // timestamps of the last four ACTs (tFAW)
	actIdx      int
	actCount    int
	nextAct     uint64 // tRRD constraint across banks in the rank
	nextRefresh uint64
	refreshEnd  uint64
}

type chanState struct {
	busFree   uint64 // cycle the data bus becomes free
	nextCol   uint64 // tCCD column command spacing
	lastWrite bool
	wtrUntil  uint64 // write-to-read turnaround gate for RD commands
}

// Outcome classifies how a transaction hit the row buffer, for statistics
// and for the Figure 1 attack primer.
type Outcome int

const (
	// RowHit means the target row was already open.
	RowHit Outcome = iota
	// RowMiss means the bank was precharged (closed) and only needed ACT.
	RowMiss
	// RowConflict means a different row was open and had to be precharged.
	RowConflict
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case RowHit:
		return "hit"
	case RowMiss:
		return "miss"
	default:
		return "conflict"
	}
}

// Result reports the schedule the device chose for a transaction.
type Result struct {
	// Start is the cycle the first command of the transaction issued.
	Start uint64
	// DataDone is the cycle the data burst completed on the bus; this is
	// the transaction's completion time as seen by the controller.
	DataDone uint64
	// Outcome is the row-buffer outcome.
	Outcome Outcome
}

// stallWindow is an injected blackout [from, until) during which no command
// may start (a fault-injected refresh storm beyond the nominal schedule).
type stallWindow struct {
	from, until uint64
}

// Device is the DRAM device array behind one set of channels.
type Device struct {
	t         Timing
	mapper    *mem.Mapper
	closedRow bool
	banks     []bankState
	ranks     []rankState
	channels  []chanState
	stalls    []stallWindow

	// Observability (nil = off). Measurement only: never read during
	// scheduling decisions.
	mx *obs.Registry
	tr *obs.Tracer

	// Stats counters.
	hits, misses, conflicts, refreshes uint64
	stallHits                          uint64
}

// New builds a Device for the geometry embedded in the mapper. closedRow
// selects the auto-precharge policy required by the secure schemes.
func New(t config.DRAMTiming, mapper *mem.Mapper, closedRow bool) *Device {
	geo := mapper.Geometry()
	d := &Device{
		t:         convert(t),
		mapper:    mapper,
		closedRow: closedRow,
		banks:     make([]bankState, mapper.BankCount()),
		ranks:     make([]rankState, geo.Channels*geo.Ranks),
		channels:  make([]chanState, geo.Channels),
	}
	for i := range d.ranks {
		d.ranks[i].nextRefresh = d.t.REFI
	}
	return d
}

// ClosedRow reports whether the device auto-precharges after every access.
func (d *Device) ClosedRow() bool { return d.closedRow }

// Observe attaches an observability registry and tracer (either may be
// nil). The device records refresh activity; transaction-level metrics
// are attributed by the memory controller, which knows the domain.
func (d *Device) Observe(mx *obs.Registry, tr *obs.Tracer) {
	d.mx = mx
	d.tr = tr
}

// Timing returns the CPU-cycle timing set in use.
func (d *Device) Timing() Timing { return d.t }

func (d *Device) rankIndex(c mem.Coord) int {
	return c.Channel*d.mapper.Geometry().Ranks + c.Rank
}

// Banks returns the number of banks, indexed by mem.Mapper.FlatBank.
func (d *Device) Banks() int { return len(d.banks) }

// BankBusyUntil returns the transaction-granularity busy horizon of flat
// bank fb: the controller should not commit a second transaction to the
// bank before this cycle.
func (d *Device) BankBusyUntil(fb int) uint64 { return d.banks[fb].busyUntil }

// RowOpen reports whether row is open in flat bank fb (FR-FCFS row hits).
func (d *Device) RowOpen(fb int, row uint64) bool {
	return d.banks[fb].rowOpen && d.banks[fb].openRow == row
}

func max64(vals ...uint64) uint64 {
	var m uint64
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

// refreshGate advances the lazy refresh schedule of the rank and returns the
// earliest cycle ≥ at that is outside a refresh window and outside every
// injected stall window. The catch-up is O(1) in the number of elapsed
// refresh intervals, so a transaction displaced far into the future by an
// injected storm (up to fault.Forever) is gated in constant time.
func (d *Device) refreshGate(ri int, rk *rankState, at uint64) uint64 {
	if at >= rk.nextRefresh {
		k := (at-rk.nextRefresh)/d.t.REFI + 1
		rk.refreshEnd = rk.nextRefresh + (k-1)*d.t.REFI + d.t.RFC
		rk.nextRefresh += k * d.t.REFI
		d.refreshes += k
		d.mx.Add(obs.CtrRefreshes, 0, k)
	}
	if at < rk.refreshEnd {
		d.mx.Add(obs.CtrRefreshStallCycles, 0, rk.refreshEnd-at)
		d.tr.Emit(obs.Event{Cycle: at, Dur: rk.refreshEnd - at, Comp: obs.CompRank, Kind: obs.EvRefresh, Index: int32(ri)})
		at = rk.refreshEnd
	}
	return d.stallGate(at)
}

// stallGate pushes at past any injected blackout window covering it.
// Windows are disjoint-or-nested in practice but the loop handles overlaps;
// it terminates because each iteration strictly advances at to a window end.
func (d *Device) stallGate(at uint64) uint64 {
	for moved := true; moved; {
		moved = false
		for _, w := range d.stalls {
			if at >= w.from && at < w.until {
				at = w.until
				d.stallHits++
				moved = true
			}
		}
	}
	return at
}

// InjectStallWindow registers a blackout window [from, until): no command
// may start inside it. It models a fault-injected refresh storm; the window
// applies to every rank alike (storms are device-global and, critically for
// the security argument, input-independent). until is clamped so schedule
// arithmetic cannot overflow.
func (d *Device) InjectStallWindow(from, until uint64) {
	const maxUntil = uint64(1) << 60 // fault.Forever; avoids importing the package
	if until > maxUntil {
		until = maxUntil
	}
	if until <= from {
		return
	}
	d.stalls = append(d.stalls, stallWindow{from: from, until: until})
}

// InjectedStallHits reports how many command schedules were displaced by
// injected stall windows.
func (d *Device) InjectedStallHits() uint64 { return d.stallHits }

// fawGate returns the earliest cycle ≥ at an ACT may issue under tFAW.
func (d *Device) fawGate(rk *rankState, at uint64) uint64 {
	if rk.actCount < len(rk.actWindow) {
		return at
	}
	oldest := rk.actWindow[rk.actIdx]
	if oldest+d.t.FAW > at {
		at = oldest + d.t.FAW
	}
	return at
}

func (d *Device) recordAct(rk *rankState, at uint64) {
	rk.actWindow[rk.actIdx] = at
	rk.actIdx = (rk.actIdx + 1) % len(rk.actWindow)
	rk.actCount++
	rk.nextAct = at + d.t.RRD
}

// Service commits a transaction for coordinate c with kind k, starting no
// earlier than cycle now, and returns the chosen schedule. The caller is
// responsible for not over-committing a bank (see BankBusyUntil).
func (d *Device) Service(c mem.Coord, k mem.Kind, now uint64) Result {
	t := &d.t
	bank := &d.banks[d.mapper.FlatBank(c)]
	ri := d.rankIndex(c)
	rank := &d.ranks[ri]
	ch := &d.channels[c.Channel]

	start := now
	if bank.busyUntil > start {
		start = bank.busyUntil
	}
	start = d.refreshGate(ri, rank, start)

	var outcome Outcome
	var colCmd uint64 // cycle the RD/WR column command issues
	switch {
	case bank.rowOpen && bank.openRow == c.Row:
		outcome = RowHit
		colCmd = start
		d.hits++
	case bank.rowOpen:
		outcome = RowConflict
		d.conflicts++
		// PRE, then ACT, then column command.
		pre := max64(start, bank.nextPre)
		act := max64(pre+t.RP, bank.nextAct, rank.nextAct)
		act = d.fawGate(rank, act)
		d.recordAct(rank, act)
		bank.nextAct = act + t.RC
		bank.nextPre = act + t.RAS
		bank.openRow = c.Row
		bank.rowOpen = true
		colCmd = act + t.RCD
		start = pre
	default:
		outcome = RowMiss
		d.misses++
		act := max64(start, bank.nextAct, rank.nextAct)
		act = d.fawGate(rank, act)
		d.recordAct(rank, act)
		bank.nextAct = act + t.RC
		bank.nextPre = act + t.RAS
		bank.openRow = c.Row
		bank.rowOpen = true
		colCmd = act + t.RCD
		start = act
	}

	// Column command constraints: per-bank RD/WR gates, channel tCCD
	// spacing, write-to-read turnaround and data bus availability.
	if k == mem.Read {
		colCmd = max64(colCmd, bank.nextRead, ch.nextCol, ch.wtrUntil)
	} else {
		colCmd = max64(colCmd, bank.nextWrite, ch.nextCol)
	}
	// Data burst must find the bus free.
	dataLat := t.CAS
	if k == mem.Write {
		dataLat = t.CWD
	}
	if colCmd+dataLat < ch.busFree {
		colCmd = ch.busFree - dataLat
	}
	dataStart := colCmd + dataLat
	dataDone := dataStart + t.Burst

	// Update channel state.
	ch.busFree = dataDone
	ch.nextCol = colCmd + t.CCD
	if k == mem.Write {
		ch.lastWrite = true
		ch.wtrUntil = dataDone + t.WTR
	} else {
		ch.lastWrite = false
	}

	// Update bank column/precharge gates.
	bank.nextRead = colCmd + t.CCD
	bank.nextWrite = colCmd + t.CCD
	if k == mem.Read {
		if p := colCmd + t.RTP; p > bank.nextPre {
			bank.nextPre = p
		}
	} else {
		if p := dataDone + t.WR; p > bank.nextPre {
			bank.nextPre = p
		}
	}

	if d.closedRow {
		// Auto-precharge: close the row as soon as legal.
		pre := bank.nextPre
		bank.rowOpen = false
		if act := pre + t.RP; act > bank.nextAct {
			bank.nextAct = act
		}
	}

	bank.busyUntil = dataDone
	return Result{Start: start, DataDone: dataDone, Outcome: outcome}
}

// Stats reports cumulative row-buffer outcome counts and refresh count.
func (d *Device) Stats() (hits, misses, conflicts, refreshes uint64) {
	return d.hits, d.misses, d.conflicts, d.refreshes
}

// Reset returns the device to its post-power-up state (all banks closed,
// counters cleared, refresh schedule restarted).
func (d *Device) Reset() {
	for i := range d.banks {
		d.banks[i] = bankState{}
	}
	for i := range d.ranks {
		d.ranks[i] = rankState{nextRefresh: d.t.REFI}
	}
	for i := range d.channels {
		d.channels[i] = chanState{}
	}
	d.stalls = nil
	d.hits, d.misses, d.conflicts, d.refreshes = 0, 0, 0, 0
	d.stallHits = 0
}

// UncontendedReadLatency returns the latency in CPU cycles of an isolated
// read to a closed bank: ACT + tRCD + tCAS + tBURST. Useful as the "n" of
// the Figure 1 example and for calibrating workloads.
func (d *Device) UncontendedReadLatency() uint64 {
	return d.t.RCD + d.t.CAS + d.t.Burst
}

// String describes the device configuration.
func (d *Device) String() string {
	policy := "open-row"
	if d.closedRow {
		policy = "closed-row"
	}
	return fmt.Sprintf("dram{banks=%d %s}", len(d.banks), policy)
}
