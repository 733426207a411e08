package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/cpu"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/obs"
	"dagguise/internal/rdag"
	"dagguise/internal/shaper"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
	"dagguise/internal/workload"
)

// runView is everything a caller can read off a machine after a run: its
// checkpoint (absent for a machine of Tenants), counters, the stats of
// every core, controller, device and shaper, the registry snapshot, the
// audit taps, the egress traces and the error that stopped the run.
type runView struct {
	Now      uint64
	Err      string
	State    *SystemState
	Counters ClusterCounters
	Cores    []cpu.Stats
	Ctrls    []memctrl.Stats
	Rows     [][4]uint64
	Shapers  []shaper.Stats
	Camos    []camouflage.Stats
	Metrics  *obs.Snapshot
	Taps     string
	Egress   map[mem.Domain][]EgressEvent
}

func viewOf(t testing.TB, s *System, err error) runView {
	t.Helper()
	v := runView{Now: s.now, Counters: s.Counters(), Metrics: s.mx.Snapshot(), Taps: s.AuditDigest(), Egress: s.traces}
	if err != nil {
		v.Err = err.Error()
	}
	if len(s.tenants) == 0 {
		st, serr := s.SaveState()
		if serr != nil {
			t.Fatal(serr)
		}
		v.State = st
	}
	for _, c := range s.cores {
		v.Cores = append(v.Cores, c.Stats())
	}
	for _, ch := range s.chans {
		v.Ctrls = append(v.Ctrls, ch.ctrl.Stats())
		hits, misses, conflicts, refreshes := ch.dev.Stats()
		v.Rows = append(v.Rows, [4]uint64{hits, misses, conflicts, refreshes})
		for _, p := range ch.shaped {
			if p.dag != nil {
				v.Shapers = append(v.Shapers, p.dag.Stats())
			} else {
				v.Camos = append(v.Camos, p.camo.Stats())
			}
		}
	}
	return v
}

// stopped reports whether a pinger of s has reached its stop count, the
// condition under which its OnResponse asks Run to return.
func stopped(s *System) bool {
	for _, t := range s.tenants {
		if p, ok := t.Tenant.(*pinger); ok && p.stop > 0 && p.done >= p.stop {
			return true
		}
	}
	return false
}

// sum totals the chunk lengths of a run.
func sum(chunks []uint64) (total uint64) {
	for _, n := range chunks {
		total += n
	}
	return total
}

// diffRun advances one machine tick by tick and a twin through Run in the
// given chunks, both stopping at the first error or once a pinger has
// reached its stop count (checked after every tick on the tick side), and
// fails the test unless they end identical. It returns the cycles Run
// replayed without a Tick, read off a cycle profiler on the Run side (one
// harness lap per Tick), so a caller can check the skip was taken, the
// cycles both ran and the error that stopped both.
func diffRun(t testing.TB, build func(testing.TB) *System, chunks []uint64) (skipped, ran uint64, err error) {
	t.Helper()
	total := sum(chunks)
	ticked := build(t)
	var tickErr error
	for i := uint64(0); i < total && tickErr == nil && !stopped(ticked); i++ {
		tickErr = ticked.Tick()
	}
	run := build(t)
	prof := obs.NewCycleProfile()
	run.Profile(prof)
	start := run.now
	var runErr error
	for _, n := range chunks {
		if runErr = run.Run(context.Background(), n); runErr != nil || stopped(run) {
			break
		}
	}
	want, got := viewOf(t, ticked, tickErr), viewOf(t, run, runErr)
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if a, b := wv.Field(i).Interface(), gv.Field(i).Interface(); !reflect.DeepEqual(a, b) {
			wj, _ := json.Marshal(a)
			gj, _ := json.Marshal(b)
			t.Fatalf("%s after %d cycles differs from the tick loop:\nRun:  %.600s\nTick: %.600s", wv.Type().Field(i).Name, total, gj, wj)
		}
	}
	return run.now - start - prof.Laps(obs.PBHarness), run.now - start, runErr
}

// docdistOnce records the DocDist victim trace once per test binary: the
// differential runs build many machines around it.
var docdistOnce = sync.OnceValues(func() (*trace.Slice, error) {
	return victim.DocDistTrace(11, victim.DefaultDocDist())
})

// cachedVictim is docdistSpec over the shared recording, with a cursor of
// its own.
func cachedVictim(t testing.TB, protected bool, defense rdag.Template) CoreSpec {
	t.Helper()
	tr, err := docdistOnce()
	if err != nil {
		t.Fatal(err)
	}
	return CoreSpec{Name: "docdist", Source: &trace.Loop{Inner: &trace.Slice{Ops: tr.Ops}}, Protected: protected, Defense: defense}
}

// appSpec is specFor for any testing.TB.
func appSpec(t testing.TB, name string, seed int64) CoreSpec {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return CoreSpec{Name: name, Source: workload.MustSource(p, seed)}
}

// mustNew is New failing the test on an error.
func mustNew(t testing.TB, cfg config.SystemConfig, specs []CoreSpec) *System {
	t.Helper()
	sys, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// mustAttach is AttachFaults failing the test on an error.
func mustAttach(t testing.TB, sys *System, sched fault.Schedule) {
	t.Helper()
	if err := sys.AttachFaults(sched); err != nil {
		t.Fatal(err)
	}
}

var allSchemes = []config.Scheme{
	config.Insecure, config.FixedService, config.FSBTA,
	config.TemporalPartitioning, config.DAGguise, config.Camouflage,
}

// TestRunMatchesTickLoop is the oracle test for Run's skip over quiet
// cycles: under every scheme, on the two-core machine of Figure 9 (with
// a compute-bound co-runner whose core parks retiring, watched or not), the
// eight-core machine of Figure 10, a fleet channel and a machine of
// Tenants, with a registry, a tracer, audit taps, egress tracing, fault
// campaigns and an armed watchdog, Run must leave exactly what as many
// Ticks leave: checkpoint bytes, counters, stats, metrics, taps, egress
// traces and the error that stops the run. Run lengths are no multiple
// of the context-poll interval and some runs come in several chunks. On
// the machines of Tenants where one stops the run, Run must end at the
// tick after which a Tick loop first finds the tenant's count reached.
func TestRunMatchesTickLoop(t *testing.T) {
	eightCoreDefense := rdag.Template{Sequences: 4, Weight: 300, WriteRatio: 0.25, Banks: 8}
	twoCore := func(scheme config.Scheme, app string) func(testing.TB) *System {
		return func(t testing.TB) *System {
			return mustNew(t, config.Default(2, scheme), []CoreSpec{
				cachedVictim(t, scheme != config.Insecure, rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8}),
				appSpec(t, app, 21),
			})
		}
	}
	eightCore := func(scheme config.Scheme, faultSeed int64) func(testing.TB) *System {
		return func(t testing.TB) *System {
			var specs []CoreSpec
			for i := int64(0); i < 4; i++ {
				specs = append(specs, cachedVictim(t, true, eightCoreDefense), appSpec(t, "lbm", 21+i))
			}
			sys := mustNew(t, config.Default(8, scheme), specs)
			sys.Observe(obs.NewRegistry(sys.NumDomains()), obs.NewTracer(1<<12))
			sys.EnableEgressTrace()
			if faultSeed != 0 {
				mustAttach(t, sys, fault.Campaign(faultSeed, fault.CampaignConfig{
					Horizon: 25_000, Domains: []mem.Domain{1, 3, 5, 7}, MaxStorm: 2000, Events: 24,
				}))
			}
			return sys
		}
	}
	// cluster builds channel 1 of the fleet machine, or with tight queues
	// a one-channel machine whose generators hold refused requests most
	// of the time.
	cluster := func(scheme config.Scheme, faultSeed int64, tight bool) func(testing.TB) *System {
		return func(t testing.TB) *System {
			cfg, lo := config.DefaultMultiChannel(4, 100, scheme), 1
			if tight {
				cfg, lo = config.DefaultMultiChannel(1, 24, scheme), 0
				cfg.QueueDepth, cfg.ShaperDepth = 1, 1
			}
			sys, err := NewCluster(cfg, lo, lo+1, 1, 11)
			if err != nil {
				t.Fatal(err)
			}
			sys.Observe(obs.NewRegistry(sys.NumDomains()), nil)
			if faultSeed != 0 {
				mustAttach(t, sys, fault.Campaign(faultSeed, fault.CampaignConfig{
					Horizon: 12_000, Domains: []mem.Domain{1, 2, 3}, MaxStorm: 1000, Events: 16,
				}))
			}
			return sys
		}
	}
	// tenants builds two pingers, the protected one stopping the run at
	// its stop-th response when stop is set.
	tenants := func(scheme config.Scheme, stop int) func(testing.TB) *System {
		return func(t testing.TB) *System {
			sys := mustNew(t, config.Default(2, scheme), []CoreSpec{
				{Name: "a", Tenant: &pinger{dom: 1, gap: 700, stop: stop}, Protected: true, ShaperSeed: 3},
				{Name: "b", Tenant: &pinger{dom: 2, gap: 1900}},
			})
			sys.Observe(obs.NewRegistry(sys.NumDomains()), nil)
			sys.EnableEgressTrace()
			return sys
		}
	}
	watched := func(build func(testing.TB) *System, wd Watchdog) func(testing.TB) *System {
		return func(t testing.TB) *System {
			sys := build(t)
			for d := 1; d < len(sys.taps); d++ {
				sys.AuditResponses(mem.Domain(d), audit.NewTap())
			}
			sys.SetWatchdog(wd)
			return sys
		}
	}
	type runCase struct {
		name     string
		build    func(testing.TB) *System
		chunks   []uint64
		deadlock bool // the run must stop with a deadlock
		stops    bool // a tenant must end the run before its last cycle
	}
	var cases []runCase
	for _, scheme := range allSchemes {
		cases = append(cases,
			runCase{"two-core/leela/" + scheme.String(), twoCore(scheme, "leela"), []uint64{30_011}, false, false},
			runCase{"two-core/leela-watched/" + scheme.String(), watched(twoCore(scheme, "leela"), DefaultWatchdog()), []uint64{11, 8_000, 22_003}, false, false},
			runCase{"two-core/lbm/" + scheme.String(), watched(twoCore(scheme, "lbm"), DefaultWatchdog()), []uint64{7, 9_000, 14_003}, false, false},
			runCase{"eight-core/" + scheme.String(), eightCore(scheme, 0), []uint64{25_013}, false, false},
			runCase{"tenants/" + scheme.String(), tenants(scheme, 0), []uint64{40_009}, false, false},
			runCase{"tenants-stop/" + scheme.String(), tenants(scheme, 25), []uint64{7, 9_000, 31_002}, false, true},
		)
	}
	for _, scheme := range []config.Scheme{config.DAGguise, config.Camouflage, config.FSBTA} {
		cases = append(cases, runCase{"eight-core-faults/" + scheme.String(), eightCore(scheme, 1), []uint64{25_013}, false, false})
	}
	for _, scheme := range allSchemes {
		cases = append(cases,
			runCase{"cluster/" + scheme.String(), cluster(scheme, 0, false), []uint64{12_007}, false, false},
			runCase{"cluster-faults/" + scheme.String(), watched(cluster(scheme, 2, false), Watchdog{StallBudget: 3_000, EgressHighWater: 64}), []uint64{5_000, 7_007}, false, false},
		)
	}
	// Under DAGguise a one-entry queue partition keeps shaped requests
	// staged, and a port with staged egress is never quiet: only the
	// insecure machine holds refused generator requests through quiet
	// cycles.
	cases = append(cases, runCase{"cluster-tight/insecure", cluster(config.Insecure, 0, true), []uint64{12_007}, false, false})
	// A permanent DRAM stall under a short budget: both sides must stop
	// with the same deadlock at the same cycle.
	cases = append(cases, runCase{"deadlock/fs-bta", func(t testing.TB) *System {
		sys := watched(twoCore(config.FSBTA, "lbm"), Watchdog{StallBudget: 4_000})(t)
		mustAttach(t, sys, fault.Schedule{Events: []fault.Event{{Kind: fault.DRAMStall, Start: 3_000, Duration: fault.Forever}}})
		return sys
	}, []uint64{20_000}, true, false})
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			skipped, ran, err := diffRun(t, tc.build, tc.chunks)
			if skipped == 0 {
				t.Fatal("Run replayed no quiet cycle")
			}
			if total := sum(tc.chunks); (err == nil && ran < total) != tc.stops {
				t.Fatalf("ran %d of %d cycles; a stopping tenant: %v", ran, total, tc.stops)
			}
			var se *SimError
			if deadlocked := errors.As(err, &se) && se.Invariant == InvariantDeadlock; deadlocked != tc.deadlock || err != nil && !deadlocked {
				t.Fatalf("run stopped with %v", err)
			}
		})
	}
}

// FuzzRunMatchesTickLoop runs the Run/Tick differential on random
// machines: two to eight cores of random co-runners, some protected, a
// fleet channel with a random tenant count, or two to eight pingers, one
// of which stops the run at a random response count, under a random
// scheme, with a registry, faults and a watchdog each present or not, for
// a random length in random chunks.
func FuzzRunMatchesTickLoop(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rnd := rand.New(rand.NewSource(seed))
		scheme := allSchemes[rnd.Intn(len(allSchemes))]
		var withFaults fault.Schedule
		horizon := uint64(2_000 + rnd.Intn(12_000))
		domains := 2 + rnd.Intn(7)
		if rnd.Intn(2) == 0 {
			withFaults = fault.Campaign(rnd.Int63(), fault.CampaignConfig{
				Horizon: horizon, Domains: []mem.Domain{1, 2}, MaxStorm: 1 + uint64(rnd.Intn(3_000)), Events: 1 + rnd.Intn(20),
			})
		}
		var wd Watchdog
		if rnd.Intn(2) == 0 {
			wd = Watchdog{StallBudget: 1 + uint64(rnd.Intn(8_000)), EgressHighWater: 1 + rnd.Intn(64)}
		}
		observe := rnd.Intn(2) == 0
		// The specs are drawn once and built per machine: a trace source
		// is a cursor, which two machines must not share.
		names := workload.Names()
		apps, seeds, protected := make([]string, domains), make([]int64, domains), make([]bool, domains)
		for i := range apps {
			apps[i], seeds[i], protected[i] = names[rnd.Intn(len(names))], rnd.Int63n(100), rnd.Intn(2) == 0
		}
		cluster := rnd.Intn(3) == 0
		clusterCfg := config.DefaultMultiChannel(2, 4+rnd.Intn(40), scheme)
		clusterCfg.QueueDepth, clusterCfg.ShaperDepth = 1+rnd.Intn(8), 1+rnd.Intn(8)
		pingers := !cluster && rnd.Intn(3) == 0
		gaps := make([]uint64, domains)
		for i := range gaps {
			gaps[i] = uint64(rnd.Intn(3_000))
		}
		stopper, stopAt := rnd.Intn(domains), 1+rnd.Intn(40)
		build := func(t testing.TB) *System {
			var sys *System
			var err error
			switch {
			case cluster:
				sys, err = NewCluster(clusterCfg, 0, 1, seed, 5)
			case pingers:
				specs := make([]CoreSpec, domains)
				for i := range specs {
					p := &pinger{dom: domainOf(i), gap: gaps[i]}
					if i == stopper {
						p.stop = stopAt
					}
					specs[i] = CoreSpec{Name: apps[i], Tenant: p, Protected: protected[i], ShaperSeed: seeds[i]}
				}
				sys, err = New(config.Default(domains, scheme), specs)
			default:
				specs := make([]CoreSpec, domains)
				for i := range specs {
					specs[i] = appSpec(t, apps[i], seeds[i])
					specs[i].Protected = protected[i]
				}
				sys, err = New(config.Default(domains, scheme), specs)
			}
			if err != nil {
				t.Fatal(err)
			}
			if observe {
				sys.Observe(obs.NewRegistry(sys.NumDomains()), nil)
			}
			sys.EnableEgressTrace()
			if len(withFaults.Events) > 0 {
				mustAttach(t, sys, withFaults)
			}
			sys.SetWatchdog(wd)
			return sys
		}
		var chunks []uint64
		for left := horizon; left > 0; {
			n := min(left, 1+uint64(rnd.Intn(6_000)))
			chunks = append(chunks, n)
			left -= n
		}
		diffRun(t, build, chunks)
	})
}

// TestQuietCyclesAreCommon pins the premise of the skip on the paper's
// eight-core machine: most of its cycles are quiet.
func TestQuietCyclesAreCommon(t *testing.T) {
	var specs []CoreSpec
	for i := int64(0); i < 4; i++ {
		specs = append(specs, cachedVictim(t, true, rdag.Template{Sequences: 4, Weight: 300, WriteRatio: 0.25, Banks: 8}), appSpec(t, "lbm", 21+i))
	}
	sys := mustNew(t, config.Default(8, config.DAGguise), specs)
	prof := obs.NewCycleProfile()
	sys.Profile(prof)
	mustRun(t, sys, 40_000)
	if ticks := prof.Laps(obs.PBHarness); 2*ticks > sys.now {
		t.Fatalf("Run ticked %d of %d cycles; expected most to be replayed", ticks, sys.now)
	}
}

// TestComputeCyclesAreQuiet pins the premise of the retiring park on the
// Figure 9 machine with its most compute-bound co-runner: leela's gaps of
// ~190 instructions keep its core retiring between memory ops, and over
// the figure's 20k + 200k cycles Run must tick on fewer than half of them
// under the insecure baseline, FS-BTA and DAGguise alike.
func TestComputeCyclesAreQuiet(t *testing.T) {
	for _, scheme := range []config.Scheme{config.Insecure, config.FSBTA, config.DAGguise} {
		sys := mustNew(t, config.Default(2, scheme), []CoreSpec{
			cachedVictim(t, scheme != config.Insecure, rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8}),
			appSpec(t, "leela", 21),
		})
		prof := obs.NewCycleProfile()
		sys.Profile(prof)
		if _, err := sys.Measure(context.Background(), 20_000, 200_000); err != nil {
			t.Fatal(err)
		}
		ticks := prof.Laps(obs.PBHarness)
		t.Logf("%v: ticked %d of %d cycles", scheme, ticks, sys.now)
		if 2*ticks >= sys.now {
			t.Errorf("%v: Run ticked %d of %d cycles; expected fewer than half", scheme, ticks, sys.now)
		}
	}
}
