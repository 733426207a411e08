package camouflage

import (
	"errors"
	"testing"

	"dagguise/internal/mem"
	"dagguise/internal/shaper"
)

func testMapper() *mem.Mapper {
	return mem.MustMapper(mem.Geometry{Channels: 1, Ranks: 1, Banks: 8, RowBytes: 8 << 10, LineBytes: 64, CapacityGiB: 4})
}

func alloc() shaper.IDAlloc {
	next := uint64(1 << 32)
	return func() uint64 { next++; return next }
}

func TestDistributionValidate(t *testing.T) {
	if err := (Distribution{}).Validate(); err == nil {
		t.Fatal("empty distribution accepted")
	}
	d := Distribution{Intervals: []uint64{100, 200}}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Mean() != 150 {
		t.Fatalf("mean = %f, want 150", d.Mean())
	}
}

// drive runs the shaper for the given number of cycles with victim
// requests enqueued at the given cycles/banks, returning emission times.
func drive(t *testing.T, victims map[uint64]int, cycles uint64, seed int64) []uint64 {
	t.Helper()
	m := testMapper()
	s, err := New(1, Distribution{Intervals: []uint64{200, 400}}, m, 8, alloc(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var times []uint64
	id := uint64(0)
	for now := uint64(0); now < cycles; now++ {
		if bank, ok := victims[now]; ok && !s.Full() {
			id++
			s.Enqueue(mem.Request{ID: id, Addr: m.AddrForBank(bank, 0, 0), Kind: mem.Read, Domain: 1}, now)
		}
		for range s.Tick(now) {
			times = append(times, now)
		}
	}
	return times
}

func TestIntervalsRealiseDistribution(t *testing.T) {
	times := drive(t, nil, 5000, 3)
	if len(times) < 4 {
		t.Fatalf("too few emissions: %d", len(times))
	}
	// Every observed interval must come from the target distribution,
	// and over many epochs both values must appear in equal proportion
	// (each epoch draws each value exactly once).
	counts := map[uint64]int{}
	for i := 1; i < len(times); i++ {
		iv := times[i] - times[i-1]
		if iv != 200 && iv != 400 {
			t.Fatalf("interval %d not in target distribution {200,400}", iv)
		}
		counts[iv]++
	}
	diff := counts[200] - counts[400]
	if diff < -1 || diff > 1 {
		t.Fatalf("interval counts unbalanced: %v", counts)
	}
}

func TestOrderingLeaksVictimActivity(t *testing.T) {
	// Figure 2: with no pending requests the shaper picks intervals
	// randomly; with pending requests it greedily picks the shortest.
	// The *ordering* of intervals therefore depends on the input.
	idle := drive(t, nil, 4000, 1)
	busy := drive(t, map[uint64]int{1: 0, 2: 1, 3: 2, 500: 3, 900: 4, 1300: 5}, 4000, 1)
	if len(idle) == 0 || len(busy) == 0 {
		t.Fatal("no emissions")
	}
	same := len(idle) == len(busy)
	if same {
		for i := range idle {
			if idle[i] != busy[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("camouflage emissions identical across inputs; expected an ordering leak")
	}
}

func TestRealRequestsKeepTheirBanks(t *testing.T) {
	// The bank of a forwarded request is the victim's own — the second
	// leak the paper identifies in Camouflage.
	m := testMapper()
	s, err := New(1, Distribution{Intervals: []uint64{10}}, m, 8, alloc(), 9)
	if err != nil {
		t.Fatal(err)
	}
	s.Enqueue(mem.Request{ID: 1, Addr: m.AddrForBank(6, 0, 0), Kind: mem.Read, Domain: 1}, 0)
	var forwarded *mem.Request
	for now := uint64(0); now < 1000 && forwarded == nil; now++ {
		for _, r := range s.Tick(now) {
			if !r.Fake {
				cp := r
				forwarded = &cp
			}
		}
	}
	if forwarded == nil {
		t.Fatal("real request never forwarded")
	}
	if got := m.FlatBank(m.Decode(forwarded.Addr)); got != 6 {
		t.Fatalf("forwarded bank = %d, want the victim's bank 6", got)
	}
}

func TestBackpressureAndStats(t *testing.T) {
	m := testMapper()
	s, _ := New(1, Distribution{Intervals: []uint64{1000}}, m, 2, alloc(), 1)
	for i := 0; i < 2; i++ {
		if ok, err := s.Enqueue(mem.Request{ID: uint64(i + 1), Addr: 0, Domain: 1}, 0); err != nil || !ok {
			t.Fatalf("enqueue rejected below capacity (ok=%v err=%v)", ok, err)
		}
	}
	if ok, err := s.Enqueue(mem.Request{ID: 9, Addr: 0, Domain: 1}, 0); err != nil || ok {
		t.Fatalf("enqueue accepted over capacity (ok=%v err=%v)", ok, err)
	}
	if s.Stats().Rejected != 1 || s.Stats().Enqueued != 2 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestWrongDomainIsRoutingError(t *testing.T) {
	m := testMapper()
	s, _ := New(1, Distribution{Intervals: []uint64{10}}, m, 8, alloc(), 1)
	ok, err := s.Enqueue(mem.Request{ID: 1, Domain: 3}, 0)
	if ok {
		t.Fatal("wrong-domain request accepted")
	}
	var rerr *shaper.RoutingError
	if !errors.As(err, &rerr) {
		t.Fatalf("error = %v, want *shaper.RoutingError", err)
	}
	if rerr.Got != 3 || rerr.Want != 1 || rerr.ID != 1 {
		t.Fatalf("routing error fields = %+v", rerr)
	}
}

func TestFakeResponsesSwallowed(t *testing.T) {
	m := testMapper()
	s, _ := New(1, Distribution{Intervals: []uint64{10}}, m, 8, alloc(), 1)
	if s.OnResponse(mem.Response{ID: 5, Fake: true}, 0) {
		t.Fatal("fake response delivered")
	}
	if !s.OnResponse(mem.Response{ID: 5, Fake: false}, 0) {
		t.Fatal("real response swallowed")
	}
}

func TestReset(t *testing.T) {
	m := testMapper()
	s, _ := New(1, Distribution{Intervals: []uint64{10}}, m, 8, alloc(), 1)
	s.Enqueue(mem.Request{ID: 1, Addr: 0, Domain: 1}, 0)
	s.Tick(0)
	s.Reset()
	if s.QueueLen() != 0 || s.Stats().Enqueued != 0 {
		t.Fatal("reset incomplete")
	}
}

// TestTickAllocatesNothing pins Camouflage's injection path
// allocation-free once warmed: intervals drawn, epochs refilled, real
// requests forwarded and fakes built, each returned through Tick's reused
// slice.
func TestTickAllocatesNothing(t *testing.T) {
	m := testMapper()
	s, err := New(1, Distribution{Intervals: []uint64{20, 40, 10, 30}}, m, 8, alloc(), 5)
	if err != nil {
		t.Fatal(err)
	}
	now, id := uint64(0), uint64(0)
	inject := func() {
		id++
		if id%2 == 0 && !s.Full() {
			s.Enqueue(mem.Request{ID: id, Addr: m.AddrForBank(int(id%8), 0, 0), Kind: mem.Read, Domain: 1}, now)
		}
		for injected := 0; injected == 0; now++ {
			injected = len(s.Tick(now))
		}
	}
	for i := 0; i < 64; i++ {
		inject()
	}
	if allocs := testing.AllocsPerRun(200, inject); allocs != 0 {
		t.Fatalf("a tick that injects allocates %v times", allocs)
	}
}
