package cpu

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/mem"
	"dagguise/internal/obs"
	"dagguise/internal/trace"
)

// chaosPort is a seeded port for the parking differential test. Its
// capacity follows a random schedule redrawn in step, TryEnqueue refuses
// exactly when Room is false, every accepted request holds an entry for a
// random latency (so responses arrive out of order), and writes complete
// silently. Randomness is drawn only on accepted requests and schedule
// changes, never on a refusal, so two ports fed the same accepted
// requests stay identical however many refused offers each one sees.
type chaosPort struct {
	rnd      *rand.Rand
	capacity int
	redraw   uint64 // cycle at which the capacity is redrawn
	inflight []chaosFlight
	accepted uint64
}

type chaosFlight struct {
	due  uint64
	resp mem.Response
}

func newChaosPort(seed int64) *chaosPort {
	return &chaosPort{rnd: rand.New(rand.NewSource(seed))}
}

// step redraws the capacity when its hold time is over.
func (p *chaosPort) step(now uint64) {
	if now < p.redraw {
		return
	}
	p.capacity = []int{0, 1, 2, 4, 8, 16}[p.rnd.Intn(6)]
	p.redraw = now + 1 + uint64(p.rnd.Intn(300))
}

func (p *chaosPort) Room(uint64) bool { return len(p.inflight) < p.capacity }

func (p *chaosPort) TryEnqueue(req mem.Request, now uint64) bool {
	if !p.Room(now) {
		return false
	}
	p.accepted++
	p.inflight = append(p.inflight, chaosFlight{
		due:  now + 1 + uint64(p.rnd.Intn(400)),
		resp: mem.Response{ID: req.ID, Addr: req.Addr, Kind: req.Kind, Domain: req.Domain},
	})
	return true
}

// deliver completes the due requests in issue order, handing each read's
// response to the core.
func (p *chaosPort) deliver(t testing.TB, c *Core, now uint64) {
	keep := p.inflight[:0]
	for _, f := range p.inflight {
		switch {
		case f.due > now:
			keep = append(keep, f)
		case f.resp.Kind == mem.Read:
			f.resp.Completion = now
			if err := c.OnResponse(f.resp, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.inflight = keep
}

// idCounter is a request-ID allocator whose position the test can read.
type idCounter struct{ n uint64 }

func (a *idCounter) next() uint64 { a.n++; return a.n }

// parkCase is one random core configuration and looped trace.
type parkCase struct {
	cfg config.CoreConfig
	ops []trace.Op
}

// randomParkCase draws a core with 1-6 MSHRs and the prefetcher on or off,
// and a trace of gaps 0-40 (some at or above the issue width), 0-3 op
// dependencies, about 20% stores, and a mix of hot lines, sequential
// streams and cold lines.
func randomParkCase(rnd *rand.Rand) parkCase {
	cfg := config.CoreConfig{
		IssueWidth: []int{1, 2, 4, 8}[rnd.Intn(4)],
		ROBEntries: []int{8, 32, 64, 192}[rnd.Intn(4)],
		MSHRs:      1 + rnd.Intn(6),
	}
	if rnd.Intn(2) == 0 {
		cfg.PrefetchDepth = 1 + rnd.Intn(4)
		cfg.PrefetchStreams = rnd.Intn(4)
	}
	ops := make([]trace.Op, 8+rnd.Intn(120))
	stream := uint64(rnd.Intn(1<<12)) << 6
	for i := range ops {
		op := &ops[i]
		switch rnd.Intn(3) {
		case 0: // hot: a handful of lines that stay cached
			op.Addr = uint64(rnd.Intn(8)) << 6
		case 1: // sequential stream the prefetcher can follow
			stream += 64
			op.Addr = 1<<24 + stream
		default: // cold
			op.Addr = 1<<30 + uint64(rnd.Intn(1<<16))<<6
		}
		if rnd.Intn(5) == 0 {
			op.Kind = mem.Write
		}
		op.Gap = rnd.Intn(41)
		if rnd.Intn(3) == 0 {
			op.Gap = rnd.Intn(3)
		}
		op.Dep = rnd.Intn(4)
	}
	return parkCase{cfg: cfg, ops: ops}
}

// parkStats counts why parked cores took a full tick again, parked ticks
// in which a ready load waits for an MSHR, and the replayed ticks that
// retired gap instructions.
type parkStats struct {
	response, room, head, mshrParks   int
	parkedTicks, retiringTicks, ticks int
}

// readyLoad reports whether a load in the window waits only for an MSHR
// or a port slot.
func readyLoad(c *Core) bool {
	for i := range c.window {
		if s := &c.window[i]; s.status == stReady && s.op.Kind == mem.Read {
			return true
		}
	}
	return false
}

// newParkCore builds a core for the case over a fresh trace cursor and
// fresh caches.
func newParkCore(t testing.TB, pc parkCase, port Port, ids *idCounter) *Core {
	src := &trace.Loop{Inner: &trace.Slice{Ops: pc.ops}}
	return New(1, src, tinyCaches(t), pc.cfg, port, ids.next)
}

// diffParking runs a parking core and a reference core, whose park state
// is cleared before every tick so it always takes a full tick, on the
// same random case and port schedule for the given cycles. After every
// cycle the allocator positions, Stats and accepted counts must match;
// every 1000 cycles the checkpoint JSON and the observability snapshots
// must match. At a random cycle the parking core is checkpointed and
// restored into a fresh core, which must carry on identically.
func diffParking(t testing.TB, seed int64, cycles uint64, st *parkStats) {
	rnd := rand.New(rand.NewSource(seed))
	pc := randomParkCase(rnd)
	portSeed := rnd.Int63()
	restoreAt := uint64(rnd.Int63n(int64(cycles)))

	var ids, refIDs idCounter
	port, refPort := newChaosPort(portSeed), newChaosPort(portSeed)
	c := newParkCore(t, pc, port, &ids)
	ref := newParkCore(t, pc, refPort, &refIDs)
	mx, refMx := obs.NewRegistry(2), obs.NewRegistry(2)
	c.Observe(mx)
	ref.Observe(refMx)

	checkpoint := func(c *Core) []byte {
		s, err := c.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for now := uint64(0); now < cycles; now++ {
		port.step(now)
		refPort.step(now)
		if c.parked {
			switch {
			case now >= c.wakeAt:
				st.head++
			case c.refused > 0 && port.Room(now):
				st.room++
			default:
				st.parkedTicks++
				if c.retiring {
					st.retiringTicks++
				}
			}
		}
		st.ticks++
		c.Tick(now)
		ref.parked = false
		ref.Tick(now)
		if c.parked && c.outstanding >= c.cfg.MSHRs && readyLoad(c) {
			st.mshrParks++
		}
		if c.parked && len(port.inflight) > 0 {
			for _, f := range port.inflight {
				if f.due <= now && f.resp.Kind == mem.Read {
					st.response++
					break
				}
			}
		}
		port.deliver(t, c, now)
		refPort.deliver(t, ref, now)

		if ids.n != refIDs.n || c.Stats() != ref.Stats() || port.accepted != refPort.accepted {
			t.Fatalf("seed %d cycle %d: parking core drew %d IDs, stats %+v, %d accepted; reference drew %d, stats %+v, %d accepted",
				seed, now, ids.n, c.Stats(), port.accepted, refIDs.n, ref.Stats(), refPort.accepted)
		}
		if now%1000 == 999 {
			if got, want := checkpoint(c), checkpoint(ref); string(got) != string(want) {
				t.Fatalf("seed %d cycle %d: parking core state\n%s\nreference state\n%s", seed, now, got, want)
			}
			if got, want := mx.Snapshot(), refMx.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d cycle %d: metrics differ from the reference", seed, now)
			}
		}
		if now == restoreAt {
			s, err := c.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			fresh := newParkCore(t, pc, port, &ids)
			if err := fresh.RestoreState(s); err != nil {
				t.Fatal(err)
			}
			fresh.Observe(mx)
			c = fresh
		}
	}
}

// TestParkedCoreMatchesFullTick is the oracle test for core parking: the
// O(1) replay of a parked core, stalled or retiring its head's gap, must
// be indistinguishable from the full tick over random cores, traces and
// port schedules. It also requires that every wake reason occurs, that
// cores park while a ready load waits for an MSHR and that replays retire
// gap instructions, so none of the paths goes untested.
func TestParkedCoreMatchesFullTick(t *testing.T) {
	var st parkStats
	for seed := int64(1); seed <= 60; seed++ {
		diffParking(t, seed, 20_000, &st)
	}
	t.Logf("%d of %d ticks replayed, %d of them retiring; wakes: %d response, %d room, %d head; %d MSHR-blocked parked ticks",
		st.parkedTicks, st.ticks, st.retiringTicks, st.response, st.room, st.head, st.mshrParks)
	if st.response == 0 || st.room == 0 || st.head == 0 {
		t.Fatalf("wake reasons not all exercised: %+v", st)
	}
	if st.mshrParks == 0 {
		t.Fatal("no core parked while a ready load waited for an MSHR")
	}
	if st.parkedTicks == 0 {
		t.Fatal("no tick was replayed")
	}
	if st.retiringTicks == 0 {
		t.Fatal("no replayed tick retired gap instructions")
	}
}

// TestZeroIssueWidthCoreParksStalled checks the guard a core built
// outside sim.New (whose config validation rejects a zero issue width)
// relies on: such a core retires nothing, so it must park stalled, never
// retiring, and its wake cycle must not divide by the width.
func TestZeroIssueWidthCoreParksStalled(t *testing.T) {
	cfg := config.CoreConfig{IssueWidth: 0, ROBEntries: 32, MSHRs: 4}
	ops := []trace.Op{{Addr: 0x40, Gap: 30}, {Addr: 0x80, Gap: 5}}
	var ids idCounter
	c := New(1, &trace.Loop{Inner: &trace.Slice{Ops: ops}}, tinyCaches(t), cfg, newChaosPort(1), ids.next)
	for now := uint64(0); now < 1000; now++ {
		c.Tick(now)
		if c.retiring {
			t.Fatalf("cycle %d: a zero-width core parked retiring", now)
		}
	}
	if st := c.Stats(); st.Instructions != 0 || st.StallCycles != 1000 || !c.parked {
		t.Fatalf("zero-width core: %+v, parked %v; want no retirement, 1000 stall cycles, parked", st, c.parked)
	}
}

// FuzzCoreParking drives the same differential run from fuzzed seeds.
func FuzzCoreParking(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var st parkStats
		diffParking(t, seed, 5_000, &st)
	})
}
