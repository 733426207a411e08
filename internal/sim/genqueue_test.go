package sim

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
)

// genDue is the predicate of the scan over every generator that the
// due-queue replaced: a generator steps at now when it holds a refused
// request, or when its NextAt has come and it is below the outstanding
// limit.
func genDue(g *generator, now uint64) bool {
	return g.Pending != nil || now >= g.NextAt && g.Outstanding < clusterMaxOutstanding
}

// genMark is what every step changes: a new request counts Generated, a
// refused retry counts a stall and an accepted one clears Pending.
type genMark struct {
	generated, stalls uint64
	pending           bool
}

func markOf(g *generator) genMark {
	return genMark{g.Generated, g.Stalls, g.Pending != nil}
}

// checkGenQueue fails the test unless the generator bookkeeping matches
// the generators' state: the due-queue holds exactly the generators with
// no refused request below the outstanding limit, in heap order by
// (NextAt, Index); genWake is their earliest NextAt; and the refused list
// holds exactly the others with a refused request, in index order.
func checkGenQueue(t testing.TB, s *System, when string) {
	t.Helper()
	inQueue := make(map[*generator]bool, len(s.genQ))
	for i, g := range s.genQ {
		if inQueue[g] {
			t.Fatalf("%s: generator %d queued twice", when, g.Index)
		}
		inQueue[g] = true
		if i > 0 && s.genQ.less(i, (i-1)/2) {
			t.Fatalf("%s: queue slot %d (generator %d) orders before its parent", when, i, g.Index)
		}
	}
	wake := uint64(math.MaxUint64)
	var refused []*generator
	for _, g := range s.gens {
		idle := g.Pending == nil && g.Outstanding < clusterMaxOutstanding
		if idle != inQueue[g] {
			t.Fatalf("%s: generator %d (pending %v, %d outstanding) queued: %v", when, g.Index, g.Pending != nil, g.Outstanding, inQueue[g])
		}
		if idle {
			wake = min(wake, g.NextAt)
		}
		if g.Pending != nil {
			refused = append(refused, g)
		}
	}
	if s.genWake != wake {
		t.Fatalf("%s: genWake %d, earliest queued NextAt %d", when, s.genWake, wake)
	}
	if len(refused) != len(s.refused) {
		t.Fatalf("%s: %d generators hold a refused request, the refused list has %d", when, len(refused), len(s.refused))
	}
	for i, g := range refused {
		if s.refused[i] != g {
			t.Fatalf("%s: refused list slot %d holds generator %d, want %d", when, i, s.refused[i].Index, g.Index)
		}
	}
}

// FuzzGeneratorQueue runs random cluster machines (scheme, channel count
// and slice, tenant count, queue and shaper depths, an optional fault
// campaign) tick by tick. Before each tick it marks the generators the
// old scan would step; after it, exactly those must have stepped, and the
// due-queue, genWake and the refused list must match the generators'
// state. At a random cycle the machine is checkpointed through JSON and
// restored into a fresh one, which must rebuild the queue and carry on.
func FuzzGeneratorQueue(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rnd := rand.New(rand.NewSource(seed))
		cfg := config.DefaultMultiChannel(1+rnd.Intn(3), 4+rnd.Intn(60), allSchemes[rnd.Intn(len(allSchemes))])
		cfg.QueueDepth, cfg.ShaperDepth = 1+rnd.Intn(8), 1+rnd.Intn(8)
		lo, secret := rnd.Intn(cfg.Channels), rnd.Intn(1<<16)
		cycles := uint64(2_000 + rnd.Intn(8_000))
		var sched fault.Schedule
		if rnd.Intn(2) == 0 {
			sched = fault.Campaign(rnd.Int63(), fault.CampaignConfig{
				Horizon: cycles, Domains: []mem.Domain{1, 2, 3}, MaxStorm: 1 + uint64(rnd.Intn(2_000)), Events: 1 + rnd.Intn(16),
			})
		}
		restoreAt := uint64(rnd.Int63n(int64(cycles)))
		build := func() *System {
			sys, err := NewCluster(cfg, lo, lo+1, seed, secret)
			if err != nil {
				t.Fatal(err)
			}
			if len(sched.Events) > 0 {
				mustAttach(t, sys, sched)
			}
			return sys
		}
		sys := build()
		checkGenQueue(t, sys, "after NewCluster")
		due, marks := make([]bool, len(sys.gens)), make([]genMark, len(sys.gens))
		for sys.now < cycles {
			now := sys.now
			for i, g := range sys.gens {
				due[i], marks[i] = genDue(g, now), markOf(g)
			}
			if err := sys.Tick(); err != nil {
				t.Fatal(err)
			}
			for i, g := range sys.gens {
				if stepped := markOf(g) != marks[i]; stepped != due[i] {
					t.Fatalf("seed %d cycle %d: generator %d stepped %v, the scan's predicate says %v", seed, now, i, stepped, due[i])
				}
			}
			checkGenQueue(t, sys, "after a tick")
			if now == restoreAt {
				st, err := sys.SaveState()
				if err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				var back SystemState
				if err := json.Unmarshal(blob, &back); err != nil {
					t.Fatal(err)
				}
				sys = build()
				if err := sys.RestoreState(&back); err != nil {
					t.Fatal(err)
				}
				checkGenQueue(t, sys, "after RestoreState")
			}
		}
	})
}

// TestClusterTickAllocatesNothing checks that a warmed fleet channel's
// ticks allocate nothing while they pop due generators, step them and
// push them back, and push generators that a completion takes below the
// outstanding limit.
func TestClusterTickAllocatesNothing(t *testing.T) {
	sys, err := NewCluster(config.DefaultMultiChannel(4, 100, config.DAGguise), 1, 2, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, sys, 20_000)
	full := make([]bool, len(sys.gens))
	var generated, rearmed int
	tick := func() {
		for i, g := range sys.gens {
			full[i] = g.Pending == nil && g.Outstanding >= clusterMaxOutstanding
			generated -= int(g.Generated)
		}
		if err := sys.Tick(); err != nil {
			t.Fatal(err)
		}
		for i, g := range sys.gens {
			generated += int(g.Generated)
			if full[i] && g.Outstanding < clusterMaxOutstanding {
				rearmed++
			}
		}
	}
	if allocs := testing.AllocsPerRun(2_000, tick); allocs != 0 {
		t.Fatalf("a cluster tick allocates %.2f times", allocs)
	}
	if generated == 0 || rearmed == 0 {
		t.Fatalf("the measured ticks stepped %d queued generators and re-armed %d; both paths must run", generated, rearmed)
	}
}
