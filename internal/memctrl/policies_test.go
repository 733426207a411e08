package memctrl

import (
	"math/rand"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
)

// coordDevice answers the coordinate-keyed bank queries the reference
// pick below was written against, from a saved device state, so the
// reference shares no code with dram.Device's flat-index accessors.
type coordDevice struct {
	banks []dram.BankSave
	m     *mem.Mapper
}

func (d coordDevice) BankBusyUntil(c mem.Coord) uint64 { return d.banks[d.m.FlatBank(c)].BusyUntil }

func (d coordDevice) RowOpen(c mem.Coord) bool {
	b := d.banks[d.m.FlatBank(c)]
	return b.RowOpen && b.OpenRow == c.Row
}

// referencePick is FR-FCFS as it stood before the free-bank early return
// and the cached flat bank index: it rescans the whole queue and decodes
// each entry's bank from its coordinate. The body is kept verbatim.
func referencePick(p FRFCFS, q []Entry, now uint64, dev coordDevice) int {
	writes := 0
	for i := range q {
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
		if dev.BankBusyUntil(e.Coord) > now {
			continue
		}
		if drainWrites && e.Req.Kind != mem.Write {
			continue
		}
		rank := 2
		if e.Req.Prefetch {
			rank = 4
		}
		if dev.RowOpen(e.Coord) {
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

// pickCase is one random FR-FCFS decision: a policy, a queue, a cycle and
// a device whose banks were driven to a random state.
type pickCase struct {
	p   FRFCFS
	q   []Entry
	now uint64
	dev *dram.Device
	m   *mem.Mapper
}

// newPickCase builds a case. The fuzzer controls the structure directly:
// queue length (mod 513) and the knob bits, which select 1 or 2 ranks,
// open or closed row, WritePressure 0 or 2, AgeCap 0 or 300, whether every
// bank is first made busy, and where now falls against a bank's busy
// horizon (just before, at, just after, or anywhere past it) and whether
// that bank is a random one or the one that frees first. The seed draws
// everything else.
func newPickCase(seed int64, queue uint16, knobs uint8) pickCase {
	r := rand.New(rand.NewSource(seed))
	ranks := 1 + int(knobs&1)
	m := mem.MustMapper(mem.Geometry{Channels: 1, Ranks: ranks, Banks: 8, RowBytes: 8 << 10, LineBytes: 64, CapacityGiB: 4})
	dev := dram.New(config.DDR31600(), m, knobs&2 != 0)
	pc := pickCase{dev: dev, m: m}
	if knobs&4 != 0 {
		pc.p.WritePressure = 2
	}
	if knobs&8 != 0 {
		pc.p.AgeCap = 300
	}
	kind := func() mem.Kind {
		if r.Intn(4) == 0 {
			return mem.Write
		}
		return mem.Read
	}
	coord := func() mem.Coord {
		return mem.Coord{Rank: r.Intn(ranks), Bank: r.Intn(8), Row: uint64(r.Intn(6)), Column: r.Intn(4)}
	}
	at := uint64(r.Intn(20_000))
	if knobs&16 != 0 {
		for fb := 0; fb < m.BankCount(); fb++ {
			dev.Service(m.Decode(m.AddrForBank(fb, uint64(r.Intn(6)), 0)), kind(), at)
		}
	}
	for i, n := 0, r.Intn(48); i < n; i++ {
		dev.Service(coord(), kind(), at)
		at += uint64(r.Intn(40))
	}
	h := dev.BankBusyUntil(r.Intn(m.BankCount()))
	if knobs&128 != 0 {
		for fb := 0; fb < m.BankCount(); fb++ {
			h = min(h, dev.BankBusyUntil(fb))
		}
	}
	switch (knobs >> 5) & 3 {
	case 0:
		pc.now = h
		if h > 0 {
			pc.now--
		}
	case 1:
		pc.now = h
	case 2:
		pc.now = h + 1
	default:
		pc.now = h + uint64(r.Intn(3000))
	}
	ctrl := New(dev, m, pc.p, 1024)
	for i, n := 0, int(queue%513); i < n; i++ {
		req := mem.Request{
			ID: uint64(i), Addr: m.Encode(coord()), Kind: kind(),
			Domain: mem.Domain(r.Intn(4)), Fake: r.Intn(8) == 0, Prefetch: r.Intn(3) == 0,
			Arrival: uint64(r.Int63n(int64(pc.now) + 1)),
		}
		if r.Intn(64) == 0 {
			req.Arrival = pc.now + uint64(r.Intn(100)) // from the future: age wraps
		}
		ctrl.Enqueue(req, req.Arrival)
	}
	pc.q = ctrl.queue
	return pc
}

// check runs both picks on the case and reports any disagreement. It
// returns the common pick and whether some bank was free at now.
func (pc pickCase) check(t *testing.T) (int, bool) {
	t.Helper()
	ref := coordDevice{banks: pc.dev.SaveState().Banks, m: pc.m}
	want := referencePick(pc.p, pc.q, pc.now, ref)
	got := pc.p.Pick(pc.q, pc.now, pc.dev)
	if got != want {
		t.Fatalf("Pick = %d, reference = %d (policy %+v, now %d, %d entries, %d banks)",
			got, want, pc.p, pc.now, len(pc.q), pc.m.BankCount())
	}
	free := false
	for _, b := range ref.banks {
		free = free || b.BusyUntil <= pc.now
	}
	return got, free
}

// TestFRFCFSPickMatchesParent differentially tests FRFCFS.Pick against the
// reference over random queues, device states and cycles, and checks that
// the cases cover every path: an empty queue, every bank busy, a free bank
// with nothing eligible, and an issued pick.
func TestFRFCFSPickMatchesParent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var empty, allBusy, none, picked int
	for i := 0; i < 12_000; i++ {
		pc := newPickCase(r.Int63(), uint16(r.Intn(600)), uint8(r.Intn(256)))
		got, free := pc.check(t)
		switch {
		case len(pc.q) == 0:
			empty++
		case !free:
			allBusy++
		case got < 0:
			none++
		default:
			picked++
		}
	}
	t.Logf("cases: %d empty, %d all banks busy, %d none eligible, %d picked", empty, allBusy, none, picked)
	if empty == 0 || allBusy == 0 || none == 0 || picked == 0 {
		t.Fatalf("a path went untested: %d empty, %d all banks busy, %d none eligible, %d picked",
			empty, allBusy, none, picked)
	}
}

// TestPickAmongMatchesPick checks FRFCFS.PickAmong against Pick over a
// copy of the listed entries, its pick translated back, on random cases
// and random ascending index lists (empty ones included). Write pressure
// must count the listed entries' writes only, so cases with it on must
// both drain and not drain writes.
func TestPickAmongMatchesPick(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var drained, picked int
	for i := 0; i < 12_000; i++ {
		pc := newPickCase(r.Int63(), uint16(r.Intn(120)), uint8(r.Intn(256)))
		var idx []int
		var sub []Entry
		writes, keep := 0, r.Intn(5)
		for j := range pc.q {
			if r.Intn(5) < keep {
				idx = append(idx, j)
				sub = append(sub, pc.q[j])
				if pc.q[j].Req.Kind == mem.Write {
					writes++
				}
			}
		}
		want := pc.p.Pick(sub, pc.now, pc.dev)
		if want >= 0 {
			want = idx[want]
			picked++
		}
		if got := pc.p.PickAmong(pc.q, idx, pc.now, pc.dev); got != want {
			t.Fatalf("case %d: PickAmong = %d, Pick over the copy = %d (policy %+v, %d of %d entries)",
				i, got, want, pc.p, len(idx), len(pc.q))
		}
		if pc.p.WritePressure > 0 && writes >= pc.p.WritePressure && len(sub) > writes {
			drained++
		}
	}
	t.Logf("%d picks, %d cases draining writes past queued reads", picked, drained)
	if picked == 0 || drained == 0 {
		t.Fatalf("a path went untested: %d picks, %d draining", picked, drained)
	}
}

// FuzzFRFCFSPick is the fuzzing form of TestFRFCFSPickMatchesParent.
func FuzzFRFCFSPick(f *testing.F) {
	for k := 0; k < 256; k += 9 {
		f.Add(int64(k), uint16(64*k), uint8(k))
	}
	f.Fuzz(func(t *testing.T, seed int64, queue uint16, knobs uint8) {
		newPickCase(seed, queue, knobs).check(t)
	})
}
