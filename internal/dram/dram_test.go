package dram

import (
	"sort"
	"testing"
	"testing/quick"

	"dagguise/internal/config"
	"dagguise/internal/mem"
)

func testDevice(closed bool) (*Device, *mem.Mapper) {
	m := mem.MustMapper(mem.Geometry{Channels: 1, Ranks: 1, Banks: 8, RowBytes: 8 << 10, LineBytes: 64, CapacityGiB: 4})
	return New(config.DDR31600(), m, closed), m
}

func TestUncontendedReadLatency(t *testing.T) {
	d, _ := testDevice(false)
	tm := d.Timing()
	want := tm.RCD + tm.CAS + tm.Burst
	if got := d.UncontendedReadLatency(); got != want {
		t.Fatalf("UncontendedReadLatency = %d, want %d", got, want)
	}
	// Table 2 at ratio 3: (11+11+4)*3 = 78 CPU cycles.
	if want != 78 {
		t.Fatalf("expected 78 CPU cycles for DDR3-1600, got %d", want)
	}
}

func TestRowHitFasterThanMissFasterThanConflict(t *testing.T) {
	d, _ := testDevice(false)
	c := mem.Coord{Bank: 0, Row: 10, Column: 0}

	// First access: row miss (ACT+RD).
	r1 := d.Service(c, mem.Read, 0)
	if r1.Outcome != RowMiss {
		t.Fatalf("first access outcome = %v, want miss", r1.Outcome)
	}
	missLat := r1.DataDone - 0

	// Second access, same row, after the bank is free: row hit.
	at := r1.DataDone
	r2 := d.Service(c, mem.Read, at)
	if r2.Outcome != RowHit {
		t.Fatalf("second access outcome = %v, want hit", r2.Outcome)
	}
	hitLat := r2.DataDone - at

	// Third access, different row: conflict (PRE+ACT+RD).
	at = r2.DataDone
	c2 := mem.Coord{Bank: 0, Row: 11, Column: 0}
	r3 := d.Service(c2, mem.Read, at)
	if r3.Outcome != RowConflict {
		t.Fatalf("third access outcome = %v, want conflict", r3.Outcome)
	}
	confLat := r3.DataDone - at

	if !(hitLat < missLat && missLat < confLat) {
		t.Fatalf("latency ordering violated: hit=%d miss=%d conflict=%d", hitLat, missLat, confLat)
	}
}

func TestClosedRowAlwaysMisses(t *testing.T) {
	d, _ := testDevice(true)
	c := mem.Coord{Bank: 3, Row: 5, Column: 1}
	at := uint64(0)
	for i := 0; i < 5; i++ {
		r := d.Service(c, mem.Read, at)
		if r.Outcome == RowHit {
			t.Fatalf("access %d: row hit under closed-row policy", i)
		}
		at = r.DataDone
	}
	hits, _, _, _ := d.Stats()
	if hits != 0 {
		t.Fatalf("closed-row device recorded %d hits", hits)
	}
}

func TestBankParallelismBeatsSameBank(t *testing.T) {
	// Four requests to four banks should complete sooner than four
	// requests to one bank (closed-row to make accesses uniform).
	dSame, _ := testDevice(true)
	at := uint64(0)
	var doneSame uint64
	for i := 0; i < 4; i++ {
		r := dSame.Service(mem.Coord{Bank: 0, Row: uint64(i)}, mem.Read, at)
		at = dSame.BankBusyUntil(0)
		doneSame = r.DataDone
	}

	dPar, _ := testDevice(true)
	var donePar uint64
	for i := 0; i < 4; i++ {
		r := dPar.Service(mem.Coord{Bank: i, Row: 0}, mem.Read, 0)
		donePar = r.DataDone
	}
	if donePar >= doneSame {
		t.Fatalf("bank-parallel completion %d not faster than same-bank %d", donePar, doneSame)
	}
}

func TestBusSerialisesBursts(t *testing.T) {
	// Two simultaneous reads to different banks share one data bus: their
	// bursts must not overlap.
	d, _ := testDevice(true)
	r1 := d.Service(mem.Coord{Bank: 0, Row: 0}, mem.Read, 0)
	r2 := d.Service(mem.Coord{Bank: 1, Row: 0}, mem.Read, 0)
	burst := d.Timing().Burst
	if r2.DataDone < r1.DataDone+burst {
		t.Fatalf("bursts overlap: r1 done %d, r2 done %d, burst %d", r1.DataDone, r2.DataDone, burst)
	}
}

func TestTFAWLimitsActivationRate(t *testing.T) {
	d, _ := testDevice(true)
	// Issue 5 activations to 5 different banks at cycle 0; the 5th ACT
	// must wait for the tFAW window.
	var starts []uint64
	for i := 0; i < 5; i++ {
		r := d.Service(mem.Coord{Bank: i, Row: 0}, mem.Read, 0)
		starts = append(starts, r.Start)
	}
	faw := d.Timing().FAW
	if starts[4] < starts[0]+faw {
		t.Fatalf("5th ACT at %d violates tFAW window starting %d (tFAW=%d)", starts[4], starts[0], faw)
	}
}

func TestWriteThenReadTurnaround(t *testing.T) {
	d, _ := testDevice(false)
	w := d.Service(mem.Coord{Bank: 0, Row: 0}, mem.Write, 0)
	// Read to a different bank right after the write: must respect tWTR
	// after the write burst.
	r := d.Service(mem.Coord{Bank: 1, Row: 0}, mem.Read, 0)
	tm := d.Timing()
	minRead := w.DataDone + tm.WTR + tm.CAS + tm.Burst
	if r.DataDone < minRead {
		t.Fatalf("read after write done at %d, want >= %d", r.DataDone, minRead)
	}
}

func TestRefreshBlocksRank(t *testing.T) {
	d, _ := testDevice(true)
	tm := d.Timing()
	// Ask for service just after the first refresh interval elapses; the
	// transaction must be pushed past the refresh window.
	r := d.Service(mem.Coord{Bank: 0, Row: 0}, mem.Read, tm.REFI)
	if r.Start < tm.REFI+tm.RFC {
		t.Fatalf("transaction started %d inside refresh window [%d,%d)", r.Start, tm.REFI, tm.REFI+tm.RFC)
	}
	_, _, _, refreshes := d.Stats()
	if refreshes == 0 {
		t.Fatal("no refresh recorded")
	}
}

func TestServiceMonotonicCompletion(t *testing.T) {
	// Property: repeatedly servicing the same bank yields strictly
	// increasing completion times regardless of request pattern.
	d, _ := testDevice(false)
	f := func(rows []uint8, kinds []bool) bool {
		d.Reset()
		var last uint64
		at := uint64(0)
		n := len(rows)
		if n > 32 {
			n = 32
		}
		for i := 0; i < n; i++ {
			k := mem.Read
			if i < len(kinds) && kinds[i] {
				k = mem.Write
			}
			r := d.Service(mem.Coord{Bank: 2, Row: uint64(rows[i] % 16)}, k, at)
			if r.DataDone <= last {
				return false
			}
			last = r.DataDone
			at = d.BankBusyUntil(2)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServiceStartNotBeforeNow(t *testing.T) {
	d, _ := testDevice(false)
	f := func(bank uint8, row uint16, nowRaw uint16) bool {
		now := uint64(nowRaw)
		r := d.Service(mem.Coord{Bank: int(bank % 8), Row: uint64(row)}, mem.Read, now)
		return r.Start >= now && r.DataDone > r.Start
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	d, _ := testDevice(false)
	c := mem.Coord{Bank: 0, Row: 0}
	first := d.Service(c, mem.Read, 0)
	d.Reset()
	second := d.Service(c, mem.Read, 0)
	if first != second {
		t.Fatalf("post-reset service %+v differs from fresh %+v", second, first)
	}
	hits, misses, conflicts, _ := d.Stats()
	if hits != 0 || misses != 1 || conflicts != 0 {
		t.Fatalf("stats not reset: %d/%d/%d", hits, misses, conflicts)
	}
}

func TestBusNeverOverlapsProperty(t *testing.T) {
	// Property: across any mix of banks, rows and kinds, the data bursts
	// of all transactions on the shared bus are separated by at least
	// tBURST — collect every DataDone and check pairwise spacing.
	d, m := testDevice(false)
	f := func(ops []uint16) bool {
		d.Reset()
		var dones []uint64
		now := uint64(0)
		n := len(ops)
		if n > 48 {
			n = 48
		}
		for i := 0; i < n; i++ {
			op := ops[i]
			c := mem.Coord{Bank: int(op % 8), Row: uint64(op>>3) % 64}
			k := mem.Read
			if op&0x8000 != 0 {
				k = mem.Write
			}
			// Respect the transaction-level contract: one in-flight
			// transaction per bank.
			start := d.BankBusyUntil(m.FlatBank(c))
			if start < now {
				start = now
			}
			r := d.Service(c, k, start)
			dones = append(dones, r.DataDone)
			now += uint64(op % 7)
		}
		sorted := append([]uint64{}, dones...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		burst := d.Timing().Burst
		for i := 1; i < len(sorted); i++ {
			if sorted[i]-sorted[i-1] < burst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSameBankRespectsRowCycleProperty(t *testing.T) {
	// Property: consecutive row activations in one bank are at least tRC
	// apart. Closed-row forces an ACT per access, so consecutive Start
	// times bound the ACT spacing from below only if starts equal ACTs;
	// instead check completion spacing >= tRCD+tCAS gap implied by tRC
	// for back-to-back conflicting accesses.
	d, _ := testDevice(true)
	tm := d.Timing()
	var starts []uint64
	at := uint64(0)
	for i := 0; i < 10; i++ {
		r := d.Service(mem.Coord{Bank: 1, Row: uint64(i)}, mem.Read, at)
		starts = append(starts, r.Start)
		at = d.BankBusyUntil(1)
	}
	for i := 1; i < len(starts); i++ {
		// Start is the ACT issue time for closed-bank accesses after
		// the first; spacing must respect tRC... except the very first
		// pair where Start includes the precharge-free cold start.
		if i >= 2 && starts[i]-starts[i-1] < tm.RC {
			t.Fatalf("ACTs %d and %d only %d apart (tRC=%d)", i-1, i, starts[i]-starts[i-1], tm.RC)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if RowHit.String() != "hit" || RowMiss.String() != "miss" || RowConflict.String() != "conflict" {
		t.Fatal("Outcome.String mismatch")
	}
}

func TestDeviceString(t *testing.T) {
	dOpen, _ := testDevice(false)
	dClosed, _ := testDevice(true)
	if dOpen.String() == dClosed.String() {
		t.Fatal("open and closed devices should describe differently")
	}
}

func TestInjectedStallWindowDisplacesService(t *testing.T) {
	d, _ := testDevice(true)
	d.InjectStallWindow(1_000, 5_000)
	c := mem.Coord{Bank: 0, Row: 3, Column: 0}

	// Before the window: unaffected.
	if r := d.Service(c, mem.Read, 0); r.Start >= 1_000 {
		t.Fatalf("pre-window service displaced to %d", r.Start)
	}
	// Inside the window: pushed past its end.
	r := d.Service(c, mem.Read, 2_000)
	if r.Start < 5_000 {
		t.Fatalf("in-window service started at %d, want >= 5000", r.Start)
	}
	if d.InjectedStallHits() == 0 {
		t.Fatal("stall hit not accounted")
	}
	// Well after the window: unaffected again.
	r2 := d.Service(c, mem.Read, 50_000)
	if r2.Start >= 1<<30 {
		t.Fatalf("post-window service displaced to %d", r2.Start)
	}
}

func TestInjectedStallWindowClampsAndRefreshCatchUpIsO1(t *testing.T) {
	d, _ := testDevice(true)
	// A permanent storm: until is clamped to 2^60 and the O(1) refresh
	// catch-up must handle the enormous displacement without spinning.
	d.InjectStallWindow(100, ^uint64(0))
	r := d.Service(mem.Coord{Bank: 1, Row: 0, Column: 0}, mem.Read, 500)
	if r.Start < 1<<60 {
		t.Fatalf("service inside permanent storm started at %d", r.Start)
	}
	if r.DataDone <= r.Start {
		t.Fatal("schedule arithmetic overflowed")
	}
	// A second transaction on the same bank lands even later, exercising
	// the refresh catch-up with a huge `at`.
	r2 := d.Service(mem.Coord{Bank: 1, Row: 1, Column: 0}, mem.Read, 600)
	if r2.Start < r.DataDone {
		t.Fatalf("bank occupancy lost under storm: %d < %d", r2.Start, r.DataDone)
	}
}

func TestInjectStallWindowRejectsEmpty(t *testing.T) {
	d, _ := testDevice(true)
	d.InjectStallWindow(10, 10)
	d.InjectStallWindow(20, 5)
	if r := d.Service(mem.Coord{Bank: 0, Row: 0, Column: 0}, mem.Read, 12); r.Start >= 1_000 {
		t.Fatalf("empty windows must be ignored, start=%d", r.Start)
	}
}
