// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus ablations over
// the design choices. Each benchmark reports the experiment's headline
// numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises the full system and reprints the evaluation. Benchmarks
// use shortened measurement windows; the cmd/ tools run the full-length
// versions.
package dagguise_test

import (
	"context"
	"testing"

	"dagguise/internal/attack"
	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/energy"
	"dagguise/internal/eval"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/rdag"
	"dagguise/internal/rng"
	"dagguise/internal/sat"
	"dagguise/internal/shaper"
	"dagguise/internal/sim"
	"dagguise/internal/smt"
	"dagguise/internal/stats"
	"dagguise/internal/trace"
	"dagguise/internal/verify"
	"dagguise/internal/victim"
	"dagguise/internal/workload"

	"dagguise"
)

func benchOpts() eval.Options {
	return eval.Options{Warmup: 50_000, Window: 600_000}
}

// BenchmarkFigure1AttackPrimer measures the attack example of Figure 1:
// attacker probe latency under the four victim behaviours. Metrics:
// mean latency per scenario in cycles.
func BenchmarkFigure1AttackPrimer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := attack.Figure1Primer(150, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].MeanLatency, "idle-cyc")
			b.ReportMetric(rows[1].MeanLatency, "diffbank-cyc")
			b.ReportMetric(rows[2].MeanLatency, "samerow-cyc")
			b.ReportMetric(rows[3].MeanLatency, "diffrow-cyc")
		}
	}
}

// BenchmarkFigure2CamouflageLeak measures the Figure 2 demonstration:
// Camouflage's per-position leakage versus its (hidden) aggregate
// histogram. Metrics: bits per probe position.
func BenchmarkFigure2CamouflageLeak(b *testing.B) {
	s0 := attack.Pattern{Gaps: []uint64{100}, Banks: []int{0, 1, 2, 3}}
	s1 := attack.Pattern{Gaps: []uint64{200}, Banks: []int{0, 1, 2, 3}}
	probe := attack.Probe{Bank: 0, Gap: 120}
	dist := camouflage.Distribution{Intervals: []uint64{200, 400}}
	for i := 0; i < b.N; i++ {
		res, err := attack.MeasureLeakageOpts(config.Camouflage, rdag.Template{}, dist, s0, s1, probe, 120, 3, attack.MeasureOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.AggregateMI, "aggregate-MI-bits")
			b.ReportMetric(res.SequenceMI, "sequence-MI-bits")
		}
	}
}

// BenchmarkFigure5RunningExample replays the running example: the same
// secret pair under DAGguise must give exactly identical attacker
// latencies (metric: differing probe positions, expected 0).
func BenchmarkFigure5RunningExample(b *testing.B) {
	s0 := attack.Pattern{Gaps: []uint64{100}, Banks: []int{0, 1, 2, 3}}
	s1 := attack.Pattern{Gaps: []uint64{200}, Banks: []int{0, 1, 2, 3}}
	probe := attack.Probe{Bank: 0, Gap: 120}
	for i := 0; i < b.N; i++ {
		h0, err := attack.NewHarness(config.DAGguise, rdag.Template{}, camouflage.Distribution{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		l0, err := h0.Run(s0, probe, 150, 0)
		if err != nil {
			b.Fatal(err)
		}
		h1, _ := attack.NewHarness(config.DAGguise, rdag.Template{}, camouflage.Distribution{}, 1)
		l1, err := h1.Run(s1, probe, 150, 0)
		if err != nil {
			b.Fatal(err)
		}
		diffs := 0
		for j := range l0 {
			if l0[j] != l1[j] {
				diffs++
			}
		}
		if i == b.N-1 {
			b.ReportMetric(float64(diffs), "differing-probes")
		}
		if diffs != 0 {
			b.Fatalf("DAGguise leaked: %d differing probes", diffs)
		}
	}
}

// BenchmarkFigure6TemplateGeneration instantiates the Figure 6 template
// unrollings (4x100 and 2x200) with validation.
func BenchmarkFigure6TemplateGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tpl := range []rdag.Template{
			{Sequences: 4, Weight: 300, Banks: 8},
			{Sequences: 2, Weight: 600, Banks: 8},
		} {
			if _, err := tpl.Unroll(16); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure7ProfilingSweep runs the offline profiling sweep over the
// full 36-candidate search space. Metrics: selected template parameters.
func BenchmarkFigure7ProfilingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Figure7(eval.Options{Warmup: 4_000, Window: 40_000})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Selected.Sequences), "knee-sequences")
			b.ReportMetric(float64(res.Selected.Weight), "knee-weight-cyc")
		}
	}
}

// BenchmarkFigure9TwoCore runs the two-core overhead experiment on a
// representative co-runner subset (memory-bound, mixed, compute-bound).
// Metrics: geomean normalized IPC per scheme.
func BenchmarkFigure9TwoCore(b *testing.B) {
	opts := benchOpts()
	opts.Apps = []string{"lbm", "xz", "leela"}
	for i := 0; i < b.N; i++ {
		res, err := eval.Figure9(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.FSBTAGeomean, "fsbta-norm-ipc")
			b.ReportMetric(res.DAGguiseGeomean, "dagguise-norm-ipc")
		}
	}
}

// BenchmarkFigure10EightCore runs the eight-core scaling experiment on one
// co-runner. Metrics: average normalized IPC per scheme.
func BenchmarkFigure10EightCore(b *testing.B) {
	opts := benchOpts()
	opts.Apps = []string{"x264"}
	for i := 0; i < b.N; i++ {
		res, err := eval.Figure10(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.FSBTAGeomean, "fsbta-norm-ipc")
			b.ReportMetric(res.DAGguiseGeomean, "dagguise-norm-ipc")
		}
	}
}

// BenchmarkTable1SecurityComparison quantifies the security column of the
// design-goals table: per-scheme mutual information. Metrics: sequence MI
// of the insecure baseline, Camouflage and DAGguise.
func BenchmarkTable1SecurityComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table1Observed(100, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				switch r.Scheme {
				case config.Insecure:
					b.ReportMetric(r.SequenceMI, "insecure-MI")
				case config.Camouflage:
					b.ReportMetric(r.SequenceMI, "camouflage-MI")
				case config.DAGguise:
					b.ReportMetric(r.SequenceMI, "dagguise-MI")
				}
			}
		}
	}
}

// BenchmarkTable2BaselineConfig measures the simulated machine's raw
// memory path using the Table 2 parameters: uncontended read latency and
// peak streaming bandwidth. Metrics: cycles and GB/s.
func BenchmarkTable2BaselineConfig(b *testing.B) {
	cfg := config.Default(2, config.Insecure)
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	m := mem.MustMapper(cfg.Geometry)
	for i := 0; i < b.N; i++ {
		dev := dram.New(cfg.Timing, m, false)
		ctrl := memctrl.New(dev, m, memctrl.FRFCFS{}, 32)
		served := 0
		id := uint64(0)
		var now uint64
		for served < 2000 {
			if !ctrl.Full() {
				id++
				ctrl.Enqueue(mem.Request{ID: id, Addr: id * 64}, now)
			}
			served += len(ctrl.Tick(now))
			now++
		}
		if i == b.N-1 {
			b.ReportMetric(float64(dev.UncontendedReadLatency()), "read-latency-cyc")
			gbps := float64(served*64) * sim.CPUFrequencyHz / float64(now) / 1e9
			b.ReportMetric(gbps, "peak-GBps")
		}
	}
}

// BenchmarkTable3Area evaluates the hardware cost model. Metrics: the
// Table 3 numbers.
func BenchmarkTable3Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := dagguise.EstimateArea(dagguise.Table3AreaConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.ComputationGates), "gates")
			b.ReportMetric(res.TotalAreaMM2*1000, "total-area-milli-mm2")
		}
	}
}

// BenchmarkVerificationKInduction runs the full formal proof (base step,
// strengthened induction, determinism side condition) plus the
// leaky-shaper detection. Metrics: minimal proven K and the leak's
// detection depth.
func BenchmarkVerificationKInduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := verify.NewVerifier(verify.DefaultModel())
		if err != nil {
			b.Fatal(err)
		}
		k, err := v.MinimalK(12)
		if err != nil {
			b.Fatal(err)
		}
		leaky := verify.DefaultModel()
		leaky.Leaky = true
		lv, _ := verify.NewVerifier(leaky)
		depth, _, err := lv.DetectionDepth(16)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(k), "proven-K")
			b.ReportMetric(float64(depth), "leak-depth")
		}
	}
}

// --- Ablations over the design choices called out in DESIGN.md ---

func docdistLoop(b *testing.B) trace.Source {
	b.Helper()
	tr, err := victim.DocDistTrace(11, victim.DefaultDocDist())
	if err != nil {
		b.Fatal(err)
	}
	return &trace.Loop{Inner: tr}
}

func runPair(b *testing.B, scheme config.Scheme, defense rdag.Template, mutate func(*config.SystemConfig)) sim.Result {
	b.Helper()
	cfg := config.Default(2, scheme)
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := workload.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := sim.New(cfg, []sim.CoreSpec{
		{Name: "docdist", Source: docdistLoop(b), Protected: scheme != config.Insecure, Defense: defense},
		{Name: "lbm", Source: workload.MustSource(p, 5)},
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.Measure(context.Background(), 50_000, 600_000)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationClosedVsOpenRow quantifies the cost of the closed-row
// policy DAGguise requires to hide row-buffer state. Metrics: total system
// bandwidth under each policy on the insecure scheduler.
func BenchmarkAblationClosedVsOpenRow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		open := runPair(b, config.Insecure, rdag.Template{}, func(c *config.SystemConfig) { c.ClosedRow = false })
		closed := runPair(b, config.Insecure, rdag.Template{}, func(c *config.SystemConfig) { c.ClosedRow = true })
		if i == b.N-1 {
			b.ReportMetric(open.TotalGBps, "open-row-GBps")
			b.ReportMetric(closed.TotalGBps, "closed-row-GBps")
		}
	}
}

// BenchmarkAblationTemplateDensity sweeps defense rDAG density on the
// two-core pair: denser templates help the victim and hurt the co-runner.
// Metrics: victim and co-runner IPC at the sparsest and densest points.
func BenchmarkAblationTemplateDensity(b *testing.B) {
	templates := []rdag.Template{
		{Sequences: 1, Weight: 900, WriteRatio: 0.001, Banks: 8},
		{Sequences: 4, Weight: 300, WriteRatio: 0.001, Banks: 8},
		{Sequences: 8, Weight: 150, WriteRatio: 0.001, Banks: 8},
	}
	for i := 0; i < b.N; i++ {
		var results []sim.Result
		for _, tpl := range templates {
			results = append(results, runPair(b, config.DAGguise, tpl, nil))
		}
		if i == b.N-1 {
			b.ReportMetric(results[0].Cores[0].IPC, "sparse-victim-ipc")
			b.ReportMetric(results[len(results)-1].Cores[0].IPC, "dense-victim-ipc")
			b.ReportMetric(results[0].Cores[1].IPC, "sparse-corunner-ipc")
			b.ReportMetric(results[len(results)-1].Cores[1].IPC, "dense-corunner-ipc")
		}
	}
}

// BenchmarkAblationQueueDepth varies the shaper's private queue depth.
// Metrics: victim IPC at depth 2 and depth 32.
func BenchmarkAblationQueueDepth(b *testing.B) {
	run := func(depth int) float64 {
		m := mem.MustMapper(config.Default(2, config.DAGguise).Geometry)
		driver := rdag.MustPatternDriver(rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.001, Banks: 8})
		next := uint64(1 << 40)
		sh := shaper.New(1, driver, m, depth, func() uint64 { next++; return next }, 3)
		// Saturate the shaper with a synthetic enqueue/response loop and
		// measure forwarded throughput.
		src := docdistLoop(b)
		var forwarded uint64
		type flight struct {
			at   uint64
			resp mem.Response
		}
		var flights []flight
		for now := uint64(0); now < 150_000; now++ {
			if !sh.Full() {
				op, _ := src.Next()
				sh.Enqueue(mem.Request{ID: now | 1<<50, Addr: op.Addr, Kind: mem.Read, Domain: 1, Issue: now}, now)
			}
			for _, r := range sh.Tick(now) {
				flights = append(flights, flight{now + 90, mem.Response{ID: r.ID, Fake: r.Fake, Domain: 1}})
			}
			keep := flights[:0]
			for _, f := range flights {
				if f.at <= now {
					if deliver, _ := sh.OnResponse(f.resp, now); deliver {
						forwarded++
					}
				} else {
					keep = append(keep, f)
				}
			}
			flights = keep
		}
		return float64(forwarded)
	}
	for i := 0; i < b.N; i++ {
		shallow := run(2)
		deep := run(32)
		if i == b.N-1 {
			b.ReportMetric(shallow, "depth2-forwarded")
			b.ReportMetric(deep, "depth32-forwarded")
		}
	}
}

// BenchmarkAblationFakeRate measures the fake-request fraction as victim
// demand varies: a starved defense rDAG is mostly fakes. Metrics: fake
// fraction with a dense versus sparse victim.
func BenchmarkAblationFakeRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runPair(b, config.DAGguise, rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.001, Banks: 8}, nil)
		v := res.Cores[0]
		total := v.ShaperFakes + v.ShaperForwarded
		if total == 0 {
			b.Fatal("shaper idle")
		}
		if i == b.N-1 {
			b.ReportMetric(float64(v.ShaperFakes)/float64(total), "fake-fraction")
		}
	}
}

// BenchmarkAblationRowAwareDAG evaluates the §4.4 row-buffer-aware
// extension: a defense rDAG that encodes its own row-hit pattern lets the
// machine keep the open-row policy instead of auto-precharging after every
// access. Metrics: victim and co-runner IPC under the base (closed-row)
// and row-aware (open-row) defenses.
func BenchmarkAblationRowAwareDAG(b *testing.B) {
	base := rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8}
	rowAware := base
	rowAware.RowHitRatio = 0.5
	for i := 0; i < b.N; i++ {
		closed := runPair(b, config.DAGguise, base, nil)
		open := runPair(b, config.DAGguise, rowAware, nil)
		if i == b.N-1 {
			b.ReportMetric(closed.Cores[0].IPC, "closedrow-victim-ipc")
			b.ReportMetric(open.Cores[0].IPC, "rowaware-victim-ipc")
			b.ReportMetric(closed.Cores[1].IPC, "closedrow-corunner-ipc")
			b.ReportMetric(open.Cores[1].IPC, "rowaware-corunner-ipc")
		}
	}
}

// BenchmarkAblationSecureSchedulers compares all three partitioning
// baselines on the same pair. Metrics: system average normalized IPC.
func BenchmarkAblationSecureSchedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runPair(b, config.Insecure, rdag.Template{}, nil)
		var avgs []float64
		for _, scheme := range []config.Scheme{config.FixedService, config.FSBTA, config.TemporalPartitioning} {
			r := runPair(b, scheme, rdag.Template{}, nil)
			avg := (r.Cores[0].IPC/base.Cores[0].IPC + r.Cores[1].IPC/base.Cores[1].IPC) / 2
			avgs = append(avgs, avg)
		}
		if i == b.N-1 {
			b.ReportMetric(avgs[0], "fs-avg-norm")
			b.ReportMetric(avgs[1], "fsbta-avg-norm")
			b.ReportMetric(avgs[2], "tp-avg-norm")
		}
	}
}

// BenchmarkAblationFakeEnergy quantifies the §4.4 energy discussion: the
// DRAM energy overhead of fake requests under the suppression optimisation
// the paper adopts, and what suppression saves versus performing the fakes
// at the DIMMs. Metrics: fake energy fraction and suppression saving.
func BenchmarkAblationFakeEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.Default(2, config.DAGguise)
		p, err := workload.ByName("xz")
		if err != nil {
			b.Fatal(err)
		}
		sys, err := sim.New(cfg, []sim.CoreSpec{
			{Name: "docdist", Source: docdistLoop(b), Protected: true,
				Defense: rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8}},
			{Name: "xz", Source: workload.MustSource(p, 5)},
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Measure(context.Background(), 50_000, 600_000)
		if err != nil {
			b.Fatal(err)
		}
		ctrlStats := sys.Controller().Stats()
		_, misses, conflicts, refreshes := sys.Controller().Device().Stats()
		counts := energy.Counts{
			Activates:       misses + conflicts,
			Reads:           safeSub(ctrlStats.Reads, ctrlStats.Fakes),
			Writes:          ctrlStats.Writes,
			SuppressedFakes: ctrlStats.Fakes,
			Refreshes:       refreshes,
			Cycles:          res.Cycles / 3, // CPU -> DRAM cycles
			FreqMHz:         800,
		}
		overhead, err := energy.FakeOverhead(energy.DDR3Defaults(), counts)
		if err != nil {
			b.Fatal(err)
		}
		saving, err := energy.SuppressionSaving(energy.DDR3Defaults(), counts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(overhead, "fake-energy-fraction")
			b.ReportMetric(saving, "suppression-saving")
		}
	}
}

// BenchmarkAblationBTAStride quantifies what the hazard-safe FS-BTA slot
// stride costs versus the paper's aggressive tRC/3 stride (which
// TestAggressiveBTAStrideLeaks shows to leak through bus turnarounds).
// Metrics: system average normalized IPC under each stride.
func BenchmarkAblationBTAStride(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runPair(b, config.Insecure, rdag.Template{}, nil)
		safe := runPair(b, config.FSBTA, rdag.Template{}, nil)
		aggressive := runPair(b, config.FSBTA, rdag.Template{}, func(c *config.SystemConfig) {
			c.FSBTAStrideDRAM = 13
		})
		norm := func(r sim.Result) float64 {
			return (r.Cores[0].IPC/base.Cores[0].IPC + r.Cores[1].IPC/base.Cores[1].IPC) / 2
		}
		if i == b.N-1 {
			b.ReportMetric(norm(safe), "safe-stride-norm")
			b.ReportMetric(norm(aggressive), "trc3-stride-norm")
		}
	}
}

// BenchmarkSection7SMTChannel runs the §7 generalisation: the SMT
// functional-unit port channel with and without the DAGguise port shaper.
// Metrics: leaked bits per probe in each mode.
func BenchmarkSection7SMTChannel(b *testing.B) {
	s0 := []int{0, 1, 0, 0, 1, 0, 1, 0}
	s1 := []int{1, 1, 1, 0, 0, 1, 1, 1}
	for i := 0; i < b.N; i++ {
		res, err := smt.MeasureLeakage(s0, s1, smt.DefaultDefense(), 120)
		if err != nil {
			b.Fatal(err)
		}
		if res.ShapedMI != 0 {
			b.Fatalf("shaped SMT channel leaked %f bits", res.ShapedMI)
		}
		if i == b.N-1 {
			b.ReportMetric(res.InsecureMI, "unshaped-MI-bits")
			b.ReportMetric(res.ShapedMI, "shaped-MI-bits")
		}
	}
}

func safeSub(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

// --- Component microbenchmarks ---

// BenchmarkDRAMService measures raw transaction throughput of the DRAM
// timing model.
func BenchmarkDRAMService(b *testing.B) {
	m := mem.MustMapper(config.Default(1, config.Insecure).Geometry)
	dev := dram.New(config.DDR31600(), m, false)
	b.ResetTimer()
	var at uint64
	for i := 0; i < b.N; i++ {
		c := mem.Coord{Bank: i % 8, Row: uint64(i % 128)}
		r := dev.Service(c, mem.Read, at)
		at = r.DataDone
	}
}

// BenchmarkShaperTick measures the shaper's per-cycle cost.
func BenchmarkShaperTick(b *testing.B) {
	m := mem.MustMapper(config.Default(1, config.Insecure).Geometry)
	driver := rdag.MustPatternDriver(rdag.Template{Sequences: 8, Weight: 30, Banks: 8})
	next := uint64(0)
	sh := shaper.New(1, driver, m, 8, func() uint64 { next++; return next }, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range sh.Tick(uint64(i)) {
			sh.OnResponse(mem.Response{ID: r.ID, Fake: r.Fake, Domain: 1}, uint64(i))
		}
	}
}

// BenchmarkSATSolver measures the CDCL solver on a pigeonhole instance.
func BenchmarkSATSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		v := func(p, h int) int { return p*5 + h + 1 }
		for p := 0; p < 6; p++ {
			s.AddClause(v(p, 0), v(p, 1), v(p, 2), v(p, 3), v(p, 4))
		}
		for h := 0; h < 5; h++ {
			for p1 := 0; p1 < 6; p1++ {
				for p2 := p1 + 1; p2 < 6; p2++ {
					s.AddClause(-v(p1, h), -v(p2, h))
				}
			}
		}
		if s.Solve() != sat.Unsat {
			b.Fatal("pigeonhole 6/5 must be UNSAT")
		}
	}
}

// BenchmarkSystemTick measures the full-system per-cycle simulation cost
// (a two-core DAGguise machine).
func BenchmarkSystemTick(b *testing.B) {
	p, _ := workload.ByName("lbm")
	sys, err := sim.New(config.Default(2, config.DAGguise), []sim.CoreSpec{
		{Name: "docdist", Source: docdistLoop(b), Protected: true, Defense: rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.001, Banks: 8}},
		{Name: "lbm", Source: workload.MustSource(p, 5)},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// clusterChannel builds channel 1 of the 4-channel, 100-tenant cluster
// under the scheme, warmed for 20k cycles so its partitioned transaction
// queue is deep (several hundred entries in front of 8 banks).
func clusterChannel(b *testing.B, scheme config.Scheme) *sim.System {
	b.Helper()
	sys, err := sim.NewCluster(config.DefaultMultiChannel(4, 100, scheme), 1, 2, 1, 11)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Run(context.Background(), 20_000); err != nil {
		b.Fatal(err)
	}
	return sys
}

// eightCoreMachine builds the eight-core DAGguise machine of Figure 10:
// four protected DocDist victims with the eight-core defense, each
// followed by an lbm co-runner, warmed for 20k cycles. Its memory-bound
// cores are stalled on almost every cycle.
func eightCoreMachine(b *testing.B) *sim.System {
	b.Helper()
	p, err := workload.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	var specs []sim.CoreSpec
	for i := int64(0); i < 4; i++ {
		specs = append(specs,
			sim.CoreSpec{Name: "docdist", Source: docdistLoop(b), Protected: true, Defense: eval.EightCoreDefense()},
			sim.CoreSpec{Name: "lbm", Source: workload.MustSource(p, 21+i)})
	}
	sys, err := sim.New(config.Default(8, config.DAGguise), specs)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Run(context.Background(), 20_000); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkClusterTick measures the per-cycle cost of one DAGguise fleet
// channel (clusterChannel) stepped through Tick.
func BenchmarkClusterTick(b *testing.B) {
	sys := clusterChannel(b, config.DAGguise)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEightCoreTick measures the per-cycle cost of the eight-core
// machine of Figure 10 (eightCoreMachine) stepped through Tick.
func BenchmarkEightCoreTick(b *testing.B) {
	sys := eightCoreMachine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRun measures the fleet channel of BenchmarkClusterTick
// advanced through Run, the path the fleet's chunk loop takes. One op is
// one simulated cycle, so ns/op is the cost per cycle.
func BenchmarkClusterRun(b *testing.B) {
	sys := clusterChannel(b, config.DAGguise)
	b.ResetTimer()
	if err := sys.Run(context.Background(), uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkClusterRunTP is BenchmarkClusterRun under Temporal
// Partitioning, whose picks test every queue entry's domain against the
// turn owner's group (96 unprotected tenants share one).
func BenchmarkClusterRunTP(b *testing.B) {
	sys := clusterChannel(b, config.TemporalPartitioning)
	b.ResetTimer()
	if err := sys.Run(context.Background(), uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEightCoreRun measures the eight-core machine of
// BenchmarkEightCoreTick advanced through Run, the path Measure and the
// figure runs take. One op is one simulated cycle, so ns/op is the cost
// per cycle.
func BenchmarkEightCoreRun(b *testing.B) {
	sys := eightCoreMachine(b)
	b.ResetTimer()
	if err := sys.Run(context.Background(), uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTwoCoreRun measures the two-core DAGguise machine of Figure 9
// with its most compute-bound co-runner, advanced through Run: a protected
// DocDist victim with the Figure 9 defense beside leela, warmed for 20k
// cycles. leela's core spends most of its cycles retiring the instruction
// gaps between its memory ops. One op is one simulated cycle, so ns/op is
// the cost per cycle.
func BenchmarkTwoCoreRun(b *testing.B) {
	p, err := workload.ByName("leela")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := sim.New(config.Default(2, config.DAGguise), []sim.CoreSpec{
		{Name: "docdist", Source: docdistLoop(b), Protected: true, Defense: eval.DefaultDefense()},
		{Name: "leela", Source: workload.MustSource(p, 21)},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Run(context.Background(), 20_000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := sys.Run(context.Background(), uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAttackRig measures the attack rig's cost per simulated cycle
// under each scheme. One op builds a harness and runs the Figure 5 secret-0
// victim against the probe for 1000 probes, with the defense template and
// Camouflage distribution of the Table 1 runs and the seed of their first
// trial. The ns/cycle metric divides the elapsed time by the simulated
// cycles, which end at the audit tap's last probe.
func BenchmarkAttackRig(b *testing.B) {
	s0 := attack.Pattern{Gaps: []uint64{100}, Banks: []int{0, 1, 2, 3}}
	probe := attack.Probe{Bank: 0, Row: 0, Gap: 120}
	dist := camouflage.Distribution{Intervals: []uint64{200, 400}}
	for _, scheme := range []config.Scheme{
		config.Insecure, config.Camouflage, config.FixedService,
		config.FSBTA, config.TemporalPartitioning, config.DAGguise,
	} {
		b.Run(scheme.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				h, err := attack.NewHarness(scheme, eval.DefaultDefense(), dist, 7)
				if err != nil {
					b.Fatal(err)
				}
				tap := audit.NewTap()
				h.SetAuditTap(tap)
				if _, err := h.Run(s0, probe, 1000, 0); err != nil {
					b.Fatal(err)
				}
				samples := tap.Samples()
				cycles += samples[len(samples)-1].Cycle + 1
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
		})
	}
}

// BenchmarkAuditWindow measures one window of the streaming audit. The
// insecure scheme's Figure 5 tap streams (1000 probes, shaper seed 1) are
// recorded once; one op pushes the next DefaultConfig window of both into
// an auditor, which evaluates it, then takes the report and compacts, as
// dagauditd does per window. Each window draws its own calibration stream.
func BenchmarkAuditWindow(b *testing.B) {
	s0, s1, err := eval.AuditStreams(config.Insecure, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := audit.DefaultConfig()
	windows := min(len(s0), len(s1)) / cfg.Window
	if windows == 0 {
		b.Fatalf("streams of %d and %d samples hold no %d-sample window", len(s0), len(s1), cfg.Window)
	}
	a, err := audit.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := (i % windows) * cfg.Window
		for _, s := range s0[w : w+cfg.Window] {
			if err := a.Push(ctx, 0, s); err != nil {
				b.Fatal(err)
			}
		}
		for _, s := range s1[w : w+cfg.Window] {
			if err := a.Push(ctx, 1, s); err != nil {
				b.Fatal(err)
			}
		}
		if n := len(a.TakeWindows()); n != 1 {
			b.Fatalf("op %d evaluated %d windows, want 1", i, n)
		}
		a.Compact()
	}
}

// calibrationSink keeps BenchmarkTable1Calibration's results live.
var calibrationSink float64

// BenchmarkTable1Calibration measures Table 1's calibration without its
// simulations. The MeasureLeakageOpts results of all six schemes, at 100
// probes and 2 trials per secret (the security benchmark's Table 1), are
// recorded once; one op computes every row's aggregate MI threshold,
// sequence MI threshold and aggregate MI interval with Table1Observed's
// seeds and constants (200 shuffles and resamples, alpha 0.01, 95%).
func BenchmarkTable1Calibration(b *testing.B) {
	s0 := attack.Pattern{Gaps: []uint64{100}, Banks: []int{0, 1, 2, 3}}
	s1 := attack.Pattern{Gaps: []uint64{200}, Banks: []int{0, 1, 2, 3}}
	probe := attack.Probe{Bank: 0, Row: 0, Gap: 120}
	dist := camouflage.Distribution{Intervals: []uint64{200, 400}}
	schemes := []config.Scheme{
		config.Insecure, config.Camouflage, config.FixedService,
		config.FSBTA, config.TemporalPartitioning, config.DAGguise,
	}
	results := make([]attack.LeakageResult, len(schemes))
	for i, scheme := range schemes {
		res, err := attack.MeasureLeakageOpts(scheme, eval.DefaultDefense(), dist, s0, s1, probe, 100, 2, attack.MeasureOpts{})
		if err != nil {
			b.Fatal(err)
		}
		results[i] = res
	}
	miStat := func(x, y []uint64) float64 { return stats.BinaryMI(x, y, attack.LeakageBinWidth) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, res := range results {
			rnd := rng.New(4243 + int64(schemes[j]))
			agg := audit.PermutationThreshold(res.Raw0, res.Raw1, miStat, 200, 0.01, rnd)
			seq := audit.SequencePermutationThreshold(res.Seq0, res.Seq1, attack.LeakageBinWidth, 200, 0.01, rnd)
			lo, hi := audit.BootstrapCI(res.Raw0, res.Raw1, miStat, 200, 0.95, rnd)
			calibrationSink += agg + seq + lo + hi
		}
	}
}
