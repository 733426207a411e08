package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
)

func rig(s memctrl.Scheduler) (*memctrl.Controller, *mem.Mapper) {
	m := mem.MustMapper(mem.Geometry{Channels: 1, Ranks: 1, Banks: 8, RowBytes: 8 << 10, LineBytes: 64, CapacityGiB: 4})
	dev := dram.New(config.DDR31600(), m, true) // secure schemes use closed row
	c := memctrl.New(dev, m, s, 64)
	c.PartitionQueue(8) // secure schemes need per-domain queue partitions
	return c, m
}

func TestStrideCoversHazards(t *testing.T) {
	tm := config.DDR31600()
	fs := strideFor(tm, 1)
	bta := strideFor(tm, 3)
	if fs < uint64(tm.TRC*tm.ClockRatio) {
		t.Fatalf("plain FS stride %d below tRC", fs)
	}
	if bta >= fs {
		t.Fatalf("BTA stride %d not shorter than FS stride %d", bta, fs)
	}
	// BTA stride must cover the write-to-read turnaround hazard.
	wtr := uint64((tm.TCWD + tm.TBURST + tm.TWTR) * tm.ClockRatio)
	if bta < wtr {
		t.Fatalf("BTA stride %d below turnaround hazard %d", bta, wtr)
	}
}

func TestFSRoundRobinNoSkip(t *testing.T) {
	groups := []Group{{1}, {2}}
	fs := NewFixedService(config.DDR31600(), groups)
	c, m := rig(fs)
	// Only domain 2 has traffic; it still gets at most every other slot.
	for i := 0; i < 4; i++ {
		c.Enqueue(mem.Request{ID: uint64(i), Addr: m.AddrForBank(i, uint64(i), 0), Domain: 2}, 0)
	}
	var completions []uint64
	for now := uint64(0); now < 100000 && len(completions) < 4; now++ {
		for _, r := range c.Tick(now) {
			completions = append(completions, r.Completion)
		}
	}
	if len(completions) != 4 {
		t.Fatalf("only %d of 4 completed", len(completions))
	}
	stride := fs.Stride()
	// Domain 2 owns every second slot: consecutive completions must be
	// at least 2*stride apart (no-skip wastes domain 1's slots).
	for i := 1; i < len(completions); i++ {
		if completions[i]-completions[i-1] < 2*stride {
			t.Fatalf("completions %d and %d only %d apart; idle slots were donated",
				i-1, i, completions[i]-completions[i-1])
		}
	}
}

func TestFSBTABankGroupDiscipline(t *testing.T) {
	groups := []Group{{1}}
	bta := NewFSBTA(config.DDR31600(), groups)
	c, m := rig(bta)
	// A request to bank 1 must wait for a slot with slot%3 == 1.
	c.Enqueue(mem.Request{ID: 0, Addr: m.AddrForBank(1, 0, 0), Domain: 1}, 0)
	issuedAt := uint64(0)
	for now := uint64(0); now < 100000; now++ {
		if len(c.Tick(now)) > 0 {
			issuedAt = now
			break
		}
	}
	if issuedAt == 0 {
		t.Fatal("request never completed")
	}
	// Reconstruct the issue slot from the completion by checking the
	// arbiter stats instead: exactly one slot used.
	if bta.Stats().SlotsUsed != 1 {
		t.Fatalf("slots used = %d, want 1", bta.Stats().SlotsUsed)
	}
}

// attackerLatencies runs an attacker in domain 1 issuing a fixed probe
// pattern while an optional victim in domain 2 issues the given traffic.
// It returns the attacker's response latencies — the exact observable of a
// memory timing side channel.
func attackerLatencies(t *testing.T, mk func() memctrl.Scheduler, victimGaps []uint64, probes int) []uint64 {
	t.Helper()
	c, m := rig(mk())
	type probe struct{ issued uint64 }
	outstanding := map[uint64]probe{}
	var latencies []uint64
	nextProbe := uint64(0)
	probeID := uint64(0)
	vID := uint64(1 << 20)
	nextVictim := uint64(0)
	vi := 0
	rng := rand.New(rand.NewSource(7))

	for now := uint64(0); now < 3_000_000 && len(latencies) < probes; now++ {
		// Attacker: one outstanding probe to bank 0, reissued a fixed
		// gap after each response.
		if len(outstanding) == 0 && now >= nextProbe {
			id := probeID
			probeID++
			if c.Enqueue(mem.Request{ID: id, Addr: m.AddrForBank(0, uint64(id%64), 0), Kind: mem.Read, Domain: 1, Issue: now}, now) {
				outstanding[id] = probe{issued: now}
			}
		}
		// Victim traffic.
		if len(victimGaps) > 0 && now >= nextVictim {
			gap := victimGaps[vi%len(victimGaps)]
			vi++
			c.Enqueue(mem.Request{ID: vID, Addr: m.AddrForBank(rng.Intn(8), uint64(vID%512), 0), Kind: mem.Read, Domain: 2, Issue: now}, now)
			vID++
			nextVictim = now + gap
		}
		for _, r := range c.Tick(now) {
			if p, ok := outstanding[r.ID]; ok {
				latencies = append(latencies, now-p.issued)
				delete(outstanding, r.ID)
				nextProbe = now + 50
			}
		}
	}
	if len(latencies) < probes {
		t.Fatalf("attacker starved: only %d of %d probes completed", len(latencies), probes)
	}
	return latencies
}

func TestFSBTANonInterference(t *testing.T) {
	mk := func() memctrl.Scheduler {
		return NewFSBTA(config.DDR31600(), []Group{{1}, {2}})
	}
	quiet := attackerLatencies(t, mk, nil, 200)
	noisy := attackerLatencies(t, mk, []uint64{30, 90, 300}, 200)
	burst := attackerLatencies(t, mk, []uint64{10}, 200)
	for i := range quiet {
		if quiet[i] != noisy[i] || quiet[i] != burst[i] {
			t.Fatalf("probe %d latency differs across victim behaviours: %d / %d / %d",
				i, quiet[i], noisy[i], burst[i])
		}
	}
}

func TestFSNonInterference(t *testing.T) {
	mk := func() memctrl.Scheduler {
		return NewFixedService(config.DDR31600(), []Group{{1}, {2}})
	}
	quiet := attackerLatencies(t, mk, nil, 100)
	noisy := attackerLatencies(t, mk, []uint64{25, 150}, 100)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("probe %d latency differs: %d vs %d", i, quiet[i], noisy[i])
		}
	}
}

func TestTPNonInterference(t *testing.T) {
	mk := func() memctrl.Scheduler {
		return NewTemporalPartitioning(config.DDR31600(), []Group{{1}, {2}}, 96)
	}
	quiet := attackerLatencies(t, mk, nil, 100)
	noisy := attackerLatencies(t, mk, []uint64{25, 150}, 100)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("probe %d latency differs: %d vs %d", i, quiet[i], noisy[i])
		}
	}
}

func TestAggressiveBTAStrideLeaks(t *testing.T) {
	// The paper's FS-BTA stride (tRC/3 = 13 DRAM cycles) does not cover
	// the write-to-read bus turnaround: a victim WRITE in slot s can
	// push the attacker's READ in slot s+1 by a few cycles. This test
	// documents why our default stride adds the tWTR margin: with the
	// aggressive stride, attacker latencies depend on whether the victim
	// issued writes.
	// The attacker probes bank 0 (group 0); the slot immediately before
	// each attacker slot belongs to the victim with bank group 2, so the
	// victim hammers bank 5 — a write there can push the attacker's read
	// via the bus turnaround when the stride lacks the tWTR margin.
	mkVictim := func(kind mem.Kind) func(c *memctrl.Controller, m *mem.Mapper, now uint64, vID *uint64) {
		return func(c *memctrl.Controller, m *mem.Mapper, now uint64, vID *uint64) {
			if now%40 == 0 {
				c.Enqueue(mem.Request{ID: *vID, Addr: m.AddrForBank(5, uint64(*vID%64), 0), Kind: kind, Domain: 2, Issue: now}, now)
				*vID++
			}
		}
	}
	run := func(kind mem.Kind) []uint64 {
		bta := NewFSBTAWithStride(config.DDR31600(), []Group{{1}, {2}}, 13)
		c, m := rig(bta)
		victim := mkVictim(kind)
		var latencies []uint64
		outstanding := map[uint64]uint64{}
		probeID := uint64(0)
		nextProbe := uint64(0)
		vID := uint64(1 << 20)
		for now := uint64(0); now < 2_000_000 && len(latencies) < 100; now++ {
			if len(outstanding) == 0 && now >= nextProbe {
				id := probeID
				probeID++
				if c.Enqueue(mem.Request{ID: id, Addr: m.AddrForBank(0, uint64(id%64), 0), Kind: mem.Read, Domain: 1, Issue: now}, now) {
					outstanding[id] = now
				}
			}
			victim(c, m, now, &vID)
			for _, r := range c.Tick(now) {
				if issued, ok := outstanding[r.ID]; ok {
					latencies = append(latencies, now-issued)
					delete(outstanding, r.ID)
					nextProbe = now + 50
				}
			}
		}
		return latencies
	}
	reads := run(mem.Read)
	writes := run(mem.Write)
	if len(reads) < 100 || len(writes) < 100 {
		t.Fatal("attacker starved")
	}
	same := true
	for i := range reads {
		if reads[i] != writes[i] {
			same = false
			break
		}
	}
	if same {
		t.Skip("aggressive stride showed no turnaround leak under this pattern; default stride remains safe regardless")
	}
	// Leak demonstrated: this is the justification for the safe stride.
	safe := NewFSBTA(config.DDR31600(), []Group{{1}, {2}})
	if safe.Stride() <= NewFSBTAWithStride(config.DDR31600(), []Group{{1}, {2}}, 13).Stride() {
		t.Fatal("safe stride not larger than aggressive stride")
	}
}

func TestInsecureBaselineLeaksForContrast(t *testing.T) {
	// Sanity check of the test harness itself: under FR-FCFS the
	// attacker's latencies *must* differ when the victim runs.
	mk := func() memctrl.Scheduler { return memctrl.FRFCFS{} }
	quiet := attackerLatencies(t, mk, nil, 200)
	noisy := attackerLatencies(t, mk, []uint64{10}, 200)
	same := true
	for i := range quiet {
		if quiet[i] != noisy[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("FR-FCFS showed no interference; the harness cannot detect leaks")
	}
}

func TestTPTurnExclusivity(t *testing.T) {
	tp := NewTemporalPartitioning(config.DDR31600(), []Group{{1}, {2}}, 96)
	c, m := rig(tp)
	// Both domains have pending traffic from cycle 0.
	for i := 0; i < 3; i++ {
		c.Enqueue(mem.Request{ID: uint64(i), Addr: m.AddrForBank(i, 0, 0), Domain: 1}, 0)
		c.Enqueue(mem.Request{ID: uint64(10 + i), Addr: m.AddrForBank(4+i, 0, 0), Domain: 2}, 0)
	}
	turn := tp.Turn()
	var order []struct {
		id   uint64
		done uint64
	}
	for now := uint64(0); now < 50*turn && len(order) < 6; now++ {
		for _, r := range c.Tick(now) {
			order = append(order, struct {
				id   uint64
				done uint64
			}{r.ID, r.Completion})
		}
	}
	if len(order) != 6 {
		t.Fatalf("only %d of 6 completed", len(order))
	}
	// Every completion must belong to the turn of its domain's group.
	for _, o := range order {
		dom := mem.Domain(1)
		if o.id >= 10 {
			dom = 2
		}
		// Find the turn in which it was issued: completion is within
		// the same turn thanks to dead-time draining, or shortly after.
		slot := (o.done - 1) / turn
		owner := slot % 2
		wantOwner := uint64(0)
		if dom == 2 {
			wantOwner = 1
		}
		if owner != wantOwner {
			t.Fatalf("request %d (domain %d) completed in turn %d owned by group %d", o.id, dom, slot, owner)
		}
	}
}

// contains is group membership by linear scan, the definition the
// arbiters' membership tables must agree with.
func (g Group) contains(d mem.Domain) bool {
	for _, x := range g {
		if x == d {
			return true
		}
	}
	return false
}

// TestGroupContains checks the membership tables against the linear scan
// over random rotations: groups overlapping, empty, repeated by content
// and by slice, and domains beyond every group.
func TestGroupContains(t *testing.T) {
	g := Group{3, 5}
	if m := membership([]Group{g})[0]; !m.has(3) || !m.has(5) || m.has(4) || m.has(9) {
		t.Fatal("membership table broken")
	}
	r := rand.New(rand.NewSource(5))
	for c := 0; c < 500; c++ {
		var groups []Group
		for n := 1 + r.Intn(8); len(groups) < n; {
			if len(groups) > 0 && r.Intn(3) == 0 {
				groups = append(groups, groups[r.Intn(len(groups))])
				continue
			}
			var grp Group
			for d := 1; d <= 12; d++ {
				if r.Intn(4) == 0 {
					grp = append(grp, mem.Domain(d))
				}
			}
			groups = append(groups, grp)
		}
		tables := membership(groups)
		for i, grp := range groups {
			for d := mem.Domain(0); d <= 14; d++ {
				if tables[i].has(d) != grp.contains(d) {
					t.Fatalf("rotation %v position %d: table says domain %d is in %v: %v", groups, i, d, grp, tables[i].has(d))
				}
			}
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	tm := config.DDR31600()
	if NewFixedService(tm, []Group{{1}}).Name() != "fs" {
		t.Fatal("fs name")
	}
	if NewFSBTA(tm, []Group{{1}}).Name() != "fs-bta" {
		t.Fatal("fs-bta name")
	}
	if NewTemporalPartitioning(tm, []Group{{1}}, 96).Name() != "tp" {
		t.Fatal("tp name")
	}
}

func TestFSRejectsEmptyGroups(t *testing.T) {
	// The FS-family constructors treat an empty rotation as a wiring bug:
	// an arbiter with no slots can never serve anyone. The contract is a
	// panic at construction, not a silent dead scheduler.
	defer func() {
		if recover() == nil {
			t.Fatal("NewFixedService accepted an empty group rotation")
		}
	}()
	NewFixedService(config.DDR31600(), nil)
}

func TestFSBTARejectsEmptyGroups(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFSBTA accepted an empty group rotation")
		}
	}()
	NewFSBTA(config.DDR31600(), nil)
}

func TestTPRejectsEmptyGroups(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTemporalPartitioning accepted an empty group rotation")
		}
	}()
	NewTemporalPartitioning(config.DDR31600(), nil, 96)
}

// filterPick is TP's pick as it stood with memctrl.DomainFiltered: the
// turn and refresh guards, then the inner policy over a filtered copy of
// the queue, its pick translated back. The filter's body is kept
// verbatim as the reference for the allocation-free pick.
func filterPick(tp *TemporalPartitioning, q []memctrl.Entry, now uint64, dev *dram.Device) int {
	pos := now % tp.turn
	if pos >= tp.turn-tp.dead {
		return -1
	}
	if tp.nearRefresh(now) {
		return -1
	}
	owner := tp.groups[(now/tp.turn)%uint64(len(tp.groups))]
	idxMap := make([]int, 0, len(q))
	sub := make([]memctrl.Entry, 0, len(q))
	for i := range q {
		if owner.contains(q[i].Req.Domain) {
			idxMap = append(idxMap, i)
			sub = append(sub, q[i])
		}
	}
	if len(sub) == 0 {
		return -1
	}
	inner := tp.inner.Pick(sub, now, dev)
	if inner < 0 {
		return -1
	}
	return idxMap[inner]
}

// TestTPPickMatchesFilteredPick differentially tests TP's pick against the
// filter-and-copy reference over random owner groups, queues, bank states
// and cycles. Each case picks several times from prefixes of one queue,
// longest first, so a stale tail of the reused scratch would show. The
// slot counter must count exactly the issued picks.
func TestTPPickMatchesFilteredPick(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	m := mem.MustMapper(mem.Geometry{Channels: 1, Ranks: 1, Banks: 8, RowBytes: 8 << 10, LineBytes: 64, CapacityGiB: 4})
	var guarded, none, picked int
	for c := 0; c < 3000; c++ {
		var groups []Group
		for g, n := 0, 1+r.Intn(4); g < n; g++ {
			var grp Group
			for d := 1; d <= 5; d++ {
				if r.Intn(3) == 0 {
					grp = append(grp, mem.Domain(d))
				}
			}
			groups = append(groups, grp)
		}
		tp := NewTemporalPartitioning(config.DDR31600(), groups, 32+r.Intn(96))
		dev := dram.New(config.DDR31600(), m, r.Intn(2) == 0)
		at := 200 + uint64(r.Intn(50_000))
		for i, n := 0, r.Intn(24); i < n; i++ {
			co := mem.Coord{Bank: r.Intn(8), Row: uint64(r.Intn(4))}
			dev.Service(co, mem.Kind(r.Intn(2)), at)
			at += uint64(r.Intn(60))
		}
		q := make([]memctrl.Entry, r.Intn(40))
		for i := range q {
			addr := m.AddrForBank(r.Intn(8), uint64(r.Intn(4)), r.Intn(4))
			co := m.Decode(addr)
			req := mem.Request{ID: uint64(i), Addr: addr, Kind: mem.Kind(r.Intn(2)), Domain: mem.Domain(r.Intn(6)),
				Prefetch: r.Intn(4) == 0, Arrival: uint64(r.Int63n(int64(at) + 1))}
			q[i] = memctrl.Entry{Req: req, Coord: co, FlatBank: m.FlatBank(co)}
		}
		issued := uint64(0)
		for k := len(q); k >= 0; k -= 1 + r.Intn(8) {
			now := at - 200 + uint64(r.Intn(2000))
			want := filterPick(tp, q[:k], now, dev)
			got := tp.Pick(q[:k], now, dev)
			if got != want {
				t.Fatalf("case %d: Pick = %d, reference = %d (now %d, %d of %d entries, groups %v)",
					c, got, want, now, k, len(q), groups)
			}
			pos := now % tp.turn
			switch {
			case pos >= tp.turn-tp.dead || tp.nearRefresh(now):
				guarded++
			case got < 0:
				none++
			default:
				picked++
				issued++
			}
		}
		if used := tp.Stats().SlotsUsed; used != issued {
			t.Fatalf("case %d: SlotsUsed = %d, want %d issued picks", c, used, issued)
		}
	}
	t.Logf("picks: %d guarded, %d none eligible, %d picked", guarded, none, picked)
	if guarded == 0 || none == 0 || picked == 0 {
		t.Fatalf("a path went untested: %d guarded, %d none eligible, %d picked", guarded, none, picked)
	}
}

// TestNextPickMatchesPick checks every scheduler's NextPick against its
// Pick: a controller that jumps from each cycle to the next enqueue or
// its NextEvent bound, replaying the cycles in between with SkipTicks,
// must return the same responses at the same cycles, and leave the same
// controller and arbiter state, as one ticked on every cycle.
func TestNextPickMatchesPick(t *testing.T) {
	tm := config.DDR31600()
	groups := []Group{{1}, {2}, {3, 4}, {3, 4}}
	policies := map[string]func() memctrl.Scheduler{
		"fr-fcfs": func() memctrl.Scheduler { return memctrl.FRFCFS{} },
		"fcfs":    func() memctrl.Scheduler { return memctrl.FCFS{} },
		"fs":      func() memctrl.Scheduler { return NewFixedService(tm, groups) },
		"fs-bta":  func() memctrl.Scheduler { return NewFSBTA(tm, groups) },
		"tp":      func() memctrl.Scheduler { return NewTemporalPartitioning(tm, groups, 96) },
	}
	type event struct {
		at  uint64
		req mem.Request
	}
	const horizon = 60_000
	for name, mk := range policies {
		ref, m := rig(mk())
		jump, _ := rig(mk())
		rnd := rand.New(rand.NewSource(5))
		var arrivals []event
		// Bursts of arrivals in one cycle, then gaps: queues build up
		// behind busy banks and drain again.
		for at := uint64(0); at < horizon; at += uint64(rnd.Intn(3)) * uint64(rnd.Intn(150)) {
			arrivals = append(arrivals, event{at, mem.Request{
				ID:     uint64(len(arrivals)),
				Addr:   m.AddrForBank(rnd.Intn(8), uint64(rnd.Intn(64)), rnd.Intn(16)),
				Kind:   mem.Kind(rnd.Intn(2)),
				Domain: mem.Domain(1 + rnd.Intn(4)),
			}})
		}
		// run drives c to the horizon, jumping quiet cycles when asked,
		// and returns the responses as (cycle, ID) pairs plus the count
		// of cycles it ticked.
		run := func(c *memctrl.Controller, jumps bool) (out [][2]uint64, ticks int) {
			next := 0
			for now := uint64(0); now < horizon; {
				for next < len(arrivals) && arrivals[next].at == now {
					c.Enqueue(arrivals[next].req, now) // a refusal drops it on both sides
					next++
				}
				if jumps {
					limit := uint64(horizon)
					if next < len(arrivals) {
						limit = arrivals[next].at
					}
					if at, ok := c.NextEvent(now); !ok || at > now {
						if ok {
							limit = min(limit, at)
						}
						c.SkipTicks(limit - now)
						now = limit
						continue
					}
				}
				for _, r := range c.Tick(now) {
					out = append(out, [2]uint64{now, r.ID})
				}
				ticks++
				now++
			}
			return out, ticks
		}
		want, all := run(ref, false)
		got, ticked := run(jump, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: responses with jumps differ from the tick loop (%d vs %d)", name, len(got), len(want))
		}
		if ref.Stats() != jump.Stats() || !reflect.DeepEqual(ref.SaveState(), jump.SaveState()) {
			t.Fatalf("%s: controller state differs after the run", name)
		}
		if sr, ok := ref.Scheduler().(StatefulScheduler); ok {
			if a, b := sr.SaveState(), jump.Scheduler().(StatefulScheduler).SaveState(); a != b {
				t.Fatalf("%s: arbiter state %+v, tick loop %+v", name, b, a)
			}
		}
		t.Logf("%s: %d responses, %d of %d cycles ticked", name, len(want), ticked, all)
		if len(want) < 100 || ticked > all/2 {
			t.Fatalf("%s: %d responses, %d of %d cycles ticked; the run should be busy yet mostly quiet", name, len(want), ticked, all)
		}
	}
}
