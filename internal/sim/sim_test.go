package sim

import (
	"context"
	"math"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/cpu"
	"dagguise/internal/mem"
	"dagguise/internal/rdag"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
	"dagguise/internal/workload"
)

func specFor(t *testing.T, name string, seed int64, protected bool) CoreSpec {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return CoreSpec{Name: name, Source: workload.MustSource(p, seed), Protected: protected}
}

func docdistSpec(t *testing.T, protected bool) CoreSpec {
	t.Helper()
	tr, err := victim.DocDistTrace(11, victim.DefaultDocDist())
	if err != nil {
		t.Fatal(err)
	}
	return CoreSpec{
		Name:      "docdist",
		Source:    &trace.Loop{Inner: tr},
		Protected: protected,
		Defense:   rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8},
	}
}

// mustRun advances sys by cycles, failing the test on an invariant
// violation.
func mustRun(t testing.TB, sys *System, cycles uint64) {
	t.Helper()
	if err := sys.Run(context.Background(), cycles); err != nil {
		t.Fatal(err)
	}
}

// mustMeasure is Measure failing the test on an invariant violation.
func mustMeasure(t testing.TB, sys *System, warmup, window uint64) Result {
	t.Helper()
	res, err := sys.Measure(context.Background(), warmup, window)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoCoreSystemRuns(t *testing.T) {
	cfg := config.Default(2, config.Insecure)
	sys, err := New(cfg, []CoreSpec{docdistSpec(t, true), specFor(t, "lbm", 5, false)})
	if err != nil {
		t.Fatal(err)
	}
	res := mustMeasure(t, sys, 20_000, 200_000)
	if len(res.Cores) != 2 {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	for _, c := range res.Cores {
		if c.IPC <= 0 {
			t.Fatalf("core %s has zero IPC", c.Name)
		}
	}
	if res.TotalGBps <= 0 {
		t.Fatal("no memory traffic measured")
	}
}

func TestSchemeOrderingOnMemoryBoundPair(t *testing.T) {
	// Insecure must be fastest; DAGguise must beat FS-BTA on the
	// unprotected co-runner; all must make progress.
	run := func(scheme config.Scheme) Result {
		cfg := config.Default(2, scheme)
		sys, err := New(cfg, []CoreSpec{docdistSpec(t, true), specFor(t, "lbm", 5, false)})
		if err != nil {
			t.Fatal(err)
		}
		return mustMeasure(t, sys, 20_000, 300_000)
	}
	insecure := run(config.Insecure)
	dag := run(config.DAGguise)
	bta := run(config.FSBTA)

	t.Logf("insecure: docdist=%.3f lbm=%.3f total=%.2fGB/s", insecure.Cores[0].IPC, insecure.Cores[1].IPC, insecure.TotalGBps)
	t.Logf("dagguise: docdist=%.3f lbm=%.3f total=%.2fGB/s", dag.Cores[0].IPC, dag.Cores[1].IPC, dag.TotalGBps)
	t.Logf("fs-bta:   docdist=%.3f lbm=%.3f total=%.2fGB/s", bta.Cores[0].IPC, bta.Cores[1].IPC, bta.TotalGBps)

	if !(insecure.Cores[1].IPC > dag.Cores[1].IPC*0.99) {
		t.Errorf("insecure lbm %.3f should be >= dagguise %.3f", insecure.Cores[1].IPC, dag.Cores[1].IPC)
	}
	if !(dag.Cores[1].IPC > bta.Cores[1].IPC) {
		t.Errorf("dagguise lbm %.3f should beat fs-bta %.3f", dag.Cores[1].IPC, bta.Cores[1].IPC)
	}
}

func TestDAGguiseShaperActive(t *testing.T) {
	cfg := config.Default(2, config.DAGguise)
	sys, err := New(cfg, []CoreSpec{docdistSpec(t, true), specFor(t, "leela", 9, false)})
	if err != nil {
		t.Fatal(err)
	}
	res := mustMeasure(t, sys, 10_000, 100_000)
	v := res.Cores[0]
	if v.ShaperForwarded == 0 {
		t.Fatal("shaper forwarded no real requests")
	}
	if v.ShaperFakes == 0 {
		t.Fatal("shaper emitted no fakes over 100k cycles")
	}
}

func TestTwoChannelGeometryRuns(t *testing.T) {
	// The mapper, DRAM model and controller support multi-channel
	// geometries; a two-channel machine must run and deliver more
	// bandwidth to a streaming pair than one channel.
	run := func(channels int) float64 {
		cfg := config.Default(2, config.Insecure)
		cfg.Geometry.Channels = channels
		p, err := workload.ByName("lbm")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(cfg, []CoreSpec{
			{Name: "lbm-a", Source: workload.MustSource(p, 31)},
			{Name: "lbm-b", Source: workload.MustSource(p, 32)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return mustMeasure(t, sys, 20_000, 200_000).TotalGBps
	}
	one := run(1)
	two := run(2)
	if !(two > one*1.2) {
		t.Fatalf("two channels (%.2f GB/s) not clearly above one (%.2f GB/s)", two, one)
	}
}

func TestSpecMismatchRejected(t *testing.T) {
	cfg := config.Default(2, config.Insecure)
	if _, err := New(cfg, []CoreSpec{docdistSpec(t, false)}); err == nil {
		t.Fatal("mismatched spec count accepted")
	}
}

func TestEightCoreSystemRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("eight-core run in short mode")
	}
	cfg := config.Default(8, config.DAGguise)
	eightCoreVictim := func() CoreSpec {
		s := docdistSpec(t, true)
		// Sparser defense for heavily provisioned systems (see
		// eval.EightCoreDefense).
		s.Defense = rdag.Template{Sequences: 4, Weight: 300, WriteRatio: 0.25, Banks: 8}
		return s
	}
	specs := []CoreSpec{
		eightCoreVictim(),
		specFor(t, "lbm", 21, false),
		eightCoreVictim(),
		specFor(t, "lbm", 22, false),
		eightCoreVictim(),
		specFor(t, "lbm", 23, false),
		eightCoreVictim(),
		specFor(t, "lbm", 24, false),
	}
	sys, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res := mustMeasure(t, sys, 10_000, 100_000)
	for _, c := range res.Cores {
		if c.IPC <= 0 {
			t.Fatalf("core %s starved", c.Name)
		}
	}
}

// pinger is a minimal Tenant: one read to bank 0 outstanding, reissued
// gap cycles after each response.
type pinger struct {
	dom  mem.Domain
	gap  uint64
	done int
	stop int // the response count that ends the run (0: none does)
}

func (p *pinger) Tick(now uint64, port cpu.Port, alloc cpu.IDAlloc) uint64 {
	if !port.TryEnqueue(mem.Request{ID: alloc(), Kind: mem.Read, Domain: p.dom, Issue: now}, now) {
		return now + 1
	}
	return math.MaxUint64
}

func (p *pinger) OnResponse(_ mem.Response, now uint64) (uint64, bool) {
	p.done++
	return now + p.gap, p.done == p.stop
}

// TestTenantSystem checks the bookkeeping of a system built from Tenants:
// they count as domains and tenants, receive their responses, keep the
// machine from reading idle and refuse a checkpoint; a system mixing
// Tenants and cores is refused.
func TestTenantSystem(t *testing.T) {
	cfg := config.Default(2, config.FixedService)
	a, b := &pinger{dom: 1, gap: 10}, &pinger{dom: 2, gap: 30}
	sys, err := New(cfg, []CoreSpec{{Name: "a", Tenant: a, Protected: true}, {Name: "b", Tenant: b}})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, sys, 20_000)
	if a.done == 0 || b.done == 0 || a.done <= b.done {
		t.Fatalf("tenant responses: a %d, b %d; want both served, a more often", a.done, b.done)
	}
	if sys.NumDomains() != 3 || sys.Counters().Tenants != 2 || sys.idle() {
		t.Fatalf("NumDomains %d, Tenants %d, idle %v; want 3, 2, false", sys.NumDomains(), sys.Counters().Tenants, sys.idle())
	}
	if _, err := sys.SaveState(); err == nil {
		t.Fatal("a system of Tenants produced a checkpoint")
	}
	if _, err := New(cfg, []CoreSpec{{Name: "a", Tenant: a}, specFor(t, "lbm", 5, false)}); err == nil {
		t.Fatal("New accepted a Tenant beside a core")
	}
}
