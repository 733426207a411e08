package memctrl

import (
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
)

func testRig(sched Scheduler, closed bool) (*Controller, *mem.Mapper) {
	m := mem.MustMapper(mem.Geometry{Channels: 1, Ranks: 1, Banks: 8, RowBytes: 8 << 10, LineBytes: 64, CapacityGiB: 4})
	dev := dram.New(config.DDR31600(), m, closed)
	return New(dev, m, sched, 32), m
}

// runUntil ticks the controller until all enqueued requests complete or
// maxCycles elapses, returning responses in completion order.
func runUntil(c *Controller, maxCycles uint64) []mem.Response {
	var out []mem.Response
	for now := uint64(0); now < maxCycles; now++ {
		out = append(out, c.Tick(now)...)
		if c.Idle() {
			break
		}
	}
	return out
}

func TestFCFSServesInOrder(t *testing.T) {
	c, m := testRig(FCFS{}, false)
	for i := 0; i < 4; i++ {
		ok := c.Enqueue(mem.Request{ID: uint64(i), Addr: m.AddrForBank(i%2, uint64(i), 0), Kind: mem.Read}, 0)
		if !ok {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	resps := runUntil(c, 10000)
	if len(resps) != 4 {
		t.Fatalf("got %d responses, want 4", len(resps))
	}
	for i, r := range resps {
		if r.ID != uint64(i) {
			t.Fatalf("response %d has ID %d; FCFS must preserve order", i, r.ID)
		}
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	c, m := testRig(FRFCFS{}, false)
	// Open row 5 in bank 0.
	c.Enqueue(mem.Request{ID: 0, Addr: m.AddrForBank(0, 5, 0)}, 0)
	var now uint64
	var opened bool
	for now = 0; now < 5000; now++ {
		if len(c.Tick(now)) > 0 {
			opened = true
			break
		}
	}
	if !opened {
		t.Fatal("first request never completed")
	}
	// Now queue: a row-conflict request (older) and a row-hit (younger).
	c.Enqueue(mem.Request{ID: 1, Addr: m.AddrForBank(0, 9, 0)}, now)
	c.Enqueue(mem.Request{ID: 2, Addr: m.AddrForBank(0, 5, 1)}, now)
	resps := []mem.Response{}
	for ; now < 20000 && len(resps) < 2; now++ {
		resps = append(resps, c.Tick(now)...)
	}
	if len(resps) != 2 {
		t.Fatalf("got %d responses", len(resps))
	}
	if resps[0].ID != 2 {
		t.Fatalf("FR-FCFS served ID %d first, want the row hit (2)", resps[0].ID)
	}
}

func TestControllerQueueCapacity(t *testing.T) {
	c, m := testRig(FCFS{}, false)
	for i := 0; i < 32; i++ {
		if !c.Enqueue(mem.Request{ID: uint64(i), Addr: m.AddrForBank(0, uint64(i), 0)}, 0) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if !c.Full() {
		t.Fatal("controller should be full")
	}
	if c.Enqueue(mem.Request{ID: 99, Addr: 0}, 0) {
		t.Fatal("enqueue accepted over capacity")
	}
}

func TestControllerLatencyAccounting(t *testing.T) {
	c, m := testRig(FCFS{}, false)
	c.Enqueue(mem.Request{ID: 0, Addr: m.AddrForBank(0, 0, 0), Kind: mem.Read}, 0)
	resps := runUntil(c, 10000)
	if len(resps) != 1 {
		t.Fatal("request lost")
	}
	st := c.Stats()
	if st.Issued != 1 || st.Reads != 1 || st.Writes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalLatency != resps[0].Completion {
		t.Fatalf("latency %d, want completion %d (arrival 0)", st.TotalLatency, resps[0].Completion)
	}
	if st.BytesServed != 64 {
		t.Fatalf("bytes = %d, want 64", st.BytesServed)
	}
}

func TestFakeRequestsExcludedFromBandwidth(t *testing.T) {
	c, m := testRig(FCFS{}, false)
	c.Enqueue(mem.Request{ID: 0, Addr: m.AddrForBank(0, 0, 0), Fake: true}, 0)
	resps := runUntil(c, 10000)
	if len(resps) != 1 || !resps[0].Fake {
		t.Fatal("fake response lost or unmarked")
	}
	st := c.Stats()
	if st.Fakes != 1 || st.BytesServed != 0 || st.TotalLatency != 0 {
		t.Fatalf("fake accounting wrong: %+v", st)
	}
}

func TestOneInFlightPerBank(t *testing.T) {
	c, m := testRig(FCFS{}, true)
	c.Enqueue(mem.Request{ID: 0, Addr: m.AddrForBank(0, 0, 0)}, 0)
	c.Enqueue(mem.Request{ID: 1, Addr: m.AddrForBank(0, 1, 0)}, 0)
	// After one tick, the first is committed; the second must wait for
	// the bank even though FCFS would allow it next cycle.
	c.Tick(0)
	if c.InFlight() != 1 {
		t.Fatalf("in flight = %d, want 1", c.InFlight())
	}
	c.Tick(1)
	if c.InFlight() != 1 {
		t.Fatal("second request committed while bank busy")
	}
}

func TestPendingForDomain(t *testing.T) {
	c, m := testRig(FCFS{}, false)
	c.Enqueue(mem.Request{ID: 0, Addr: m.AddrForBank(0, 0, 0), Domain: 1}, 0)
	c.Enqueue(mem.Request{ID: 1, Addr: m.AddrForBank(1, 0, 0), Domain: 2}, 0)
	c.Enqueue(mem.Request{ID: 2, Addr: m.AddrForBank(2, 0, 0), Domain: 1}, 0)
	if got := c.PendingForDomain(1); got != 2 {
		t.Fatalf("pending for domain 1 = %d, want 2", got)
	}
}

// TestNextEvent checks the controller's bound: now while a queued
// transaction's bank is free, and otherwise the earlier of the bank-free
// cycle and the next completion, even with transactions queued.
func TestNextEvent(t *testing.T) {
	c, m := testRig(FCFS{}, false)
	if _, ok := c.NextEvent(0); ok {
		t.Fatal("idle controller reported work")
	}
	c.Enqueue(mem.Request{ID: 0, Addr: m.AddrForBank(0, 0, 0)}, 5)
	c.Enqueue(mem.Request{ID: 1, Addr: m.AddrForBank(0, 1, 0)}, 5)
	at, ok := c.NextEvent(5)
	if !ok || at != 5 {
		t.Fatalf("NextEvent = %d,%v; want 5,true", at, ok)
	}
	c.Tick(5)
	done, _ := c.NextCompletion()
	free := c.Device().BankBusyUntil(m.FlatBank(m.Decode(m.AddrForBank(0, 1, 0))))
	at, ok = c.NextEvent(6)
	if !ok || at <= 6 || at != min(done, free) {
		t.Fatalf("NextEvent with the bank busy = %d,%v; want min(completion %d, bank free %d)", at, ok, done, free)
	}
	for now := uint64(6); now < at; now++ {
		if resps := c.Tick(now); len(resps) > 0 || c.QueueLen() != 1 {
			t.Fatalf("cycle %d before the bound: %d responses, queue %d", now, len(resps), c.QueueLen())
		}
	}
}

func TestFRFCFSWriteDrain(t *testing.T) {
	// With WritePressure set, a backlog of writes gets drained ahead of
	// younger reads.
	c, m := testRig(FRFCFS{WritePressure: 2}, true)
	c.Enqueue(mem.Request{ID: 0, Addr: m.AddrForBank(0, 0, 0), Kind: mem.Write}, 0)
	c.Enqueue(mem.Request{ID: 1, Addr: m.AddrForBank(1, 0, 0), Kind: mem.Write}, 0)
	c.Enqueue(mem.Request{ID: 2, Addr: m.AddrForBank(2, 0, 0), Kind: mem.Read}, 0)
	var order []uint64
	for now := uint64(0); now < 10000 && len(order) < 3; now++ {
		for _, r := range c.Tick(now) {
			order = append(order, r.ID)
		}
	}
	if len(order) != 3 {
		t.Fatalf("served %d of 3", len(order))
	}
	if order[0] == 2 {
		t.Fatalf("read served before the write drain: order %v", order)
	}
}

func TestFRFCFSAgeCapPromotesStarvedRequest(t *testing.T) {
	// An old request must eventually outrank a stream of younger row
	// hits to its own bank.
	c, m := testRig(FRFCFS{AgeCap: 300}, false)
	// Open row 1 in bank 0 and keep hitting it.
	c.Enqueue(mem.Request{ID: 0, Addr: m.AddrForBank(0, 1, 0), Kind: mem.Read}, 0)
	// The victim of starvation: a row-conflict request in the same bank.
	c.Enqueue(mem.Request{ID: 100, Addr: m.AddrForBank(0, 9, 0), Kind: mem.Read}, 0)
	served := map[uint64]uint64{}
	nextHit := uint64(1)
	col := 1
	for now := uint64(0); now < 20000 && len(served) < 20; now++ {
		// Keep the row-hit pressure up.
		if now%50 == 0 && !c.Full() {
			c.Enqueue(mem.Request{ID: nextHit, Addr: m.AddrForBank(0, 1, col%64), Kind: mem.Read}, now)
			nextHit++
			col++
		}
		for _, r := range c.Tick(now) {
			served[r.ID] = now
		}
	}
	doneAt, ok := served[100]
	if !ok {
		t.Fatal("conflict request starved despite age cap")
	}
	if doneAt > 3000 {
		t.Fatalf("conflict request served only at cycle %d; age cap ineffective", doneAt)
	}
}

func TestControllerString(t *testing.T) {
	c, _ := testRig(FRFCFS{}, false)
	if c.String() == "" || c.Scheduler().Name() != "fr-fcfs" {
		t.Fatal("controller description broken")
	}
}
