// Package eval contains the experiment runners that regenerate every
// table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index). The cmd/ tools print their output and
// bench_test.go wraps them as benchmarks; both share the code here so the
// numbers always come from one implementation.
package eval

import (
	"context"
	"fmt"
	"sync"

	"dagguise/internal/attack"
	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/profile"
	"dagguise/internal/rdag"
	"dagguise/internal/rng"
	"dagguise/internal/sim"
	"dagguise/internal/stats"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
	"dagguise/internal/workload"
)

// Options sizes the simulations. Benchmarks shrink the windows; the cmd
// tools use the defaults.
type Options struct {
	Warmup uint64
	Window uint64
	// Apps restricts Figure 9 to a subset of SPEC profiles (nil = all).
	Apps []string
	// Attach, when non-nil, is called on every freshly built system before
	// it runs — the hook the CLIs use to wire a shared observability
	// registry and tracer across an experiment's many simulations, and to
	// arm a watchdog with SetWatchdog (eval itself arms none).
	Attach func(*sim.System)
	// Ctx, when non-nil, threads cooperative cancellation through every
	// simulation's tick loop: a SIGINT/SIGTERM or deadline stops the sweep
	// between cycles and surfaces as a context error.
	Ctx context.Context
	// Cache, when non-nil, resumes figure sweeps: completed (figure, app,
	// scheme, warmup, window) measurements are persisted immediately and
	// skipped on rerun.
	Cache *RunCache
	// Workers parallelizes the per-app rows of the figure sweeps over a
	// bounded goroutine pool (<= 1 = sequential). Rows are independent
	// simulations with per-app seeds and results are assembled in app
	// order, so the output is identical at any worker count. Callers
	// attaching a non-thread-safe observer (obs.CycleProfile) must keep
	// this at 1.
	Workers int
}

// DefaultOptions returns windows long enough for stable IPCs: the window
// covers at least one full loop of the victim traces, so every scheme's
// measurement averages over the same mix of program phases.
func DefaultOptions() Options {
	return Options{Warmup: 100_000, Window: 1_600_000}
}

// DefaultDefense is the defense rDAG the Figure 7 profiling sweep selects
// for DocDist on this simulator: the knee of the IPC-versus-allocated-
// bandwidth curve (8 parallel sequences, 50 DRAM cycles = 150 CPU cycles,
// streaming write ratio). Used for the two-core experiment.
func DefaultDefense() rdag.Template {
	return rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8}
}

// EightCoreDefense is the defense rDAG used for the eight-core experiment:
// the paper's published DocDist choice of 4 parallel sequences with a
// uniform 100-DRAM-cycle (300 CPU cycles) edge weight (Figure 6a). With
// four shapers sharing one channel, the single-victim knee is too dense —
// its fake requests crowd out the co-runners — and the sparser template
// maximises system-wide performance (see BenchmarkAblationTemplateDensity).
func EightCoreDefense() rdag.Template {
	return rdag.Template{Sequences: 4, Weight: 300, WriteRatio: 0.25, Banks: 8}
}

// specMaker builds a fresh CoreSpec per simulation run. Sources are
// stateful (they carry a position), so every scheme comparison must use a
// fresh one — otherwise one run would resume the victim's trace where the
// previous run stopped and the two runs would measure different program
// phases.
type specMaker func() (sim.CoreSpec, error)

// docdistMaker records the DocDist trace once and serves fresh loops of it.
func docdistMaker(secretSeed int64) (specMaker, error) {
	tr, err := victim.DocDistTrace(secretSeed, victim.DefaultDocDist())
	if err != nil {
		return nil, err
	}
	return func() (sim.CoreSpec, error) {
		cp := *tr
		return sim.CoreSpec{
			Name:      "docdist",
			Source:    &trace.Loop{Inner: &cp},
			Protected: true,
			Defense:   DefaultDefense(),
		}, nil
	}, nil
}

// dnaMaker records the DNA alignment trace once and serves fresh loops.
func dnaMaker(secretSeed int64) (specMaker, error) {
	tr, err := victim.DNATrace(secretSeed, victim.DefaultDNA())
	if err != nil {
		return nil, err
	}
	return func() (sim.CoreSpec, error) {
		cp := *tr
		return sim.CoreSpec{
			Name:      "dna",
			Source:    &trace.Loop{Inner: &cp},
			Protected: true,
			Defense:   DefaultDefense(),
		}, nil
	}, nil
}

// appMaker serves fresh generators for a SPEC-like profile.
func appMaker(name string, seed int64) specMaker {
	return func() (sim.CoreSpec, error) {
		p, err := workload.ByName(name)
		if err != nil {
			return sim.CoreSpec{}, err
		}
		return sim.CoreSpec{Name: name, Source: workload.MustSource(p, seed)}, nil
	}
}

// forEachApp runs fn for every app index over a pool of opts.Workers
// goroutines, returning the first error by app order. fn writes its row
// into caller-owned slices at its index, so the assembled output never
// depends on scheduling.
func forEachApp(apps []string, opts Options, fn func(i int, app string) error) error {
	workers := opts.Workers
	if workers <= 1 || len(apps) <= 1 {
		for i, app := range apps {
			if err := fn(i, app); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > len(apps) {
		workers = len(apps)
	}
	errs := make([]error, len(apps))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i, apps[i])
			}
		}()
	}
	for i := range apps {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SchemeIPCs holds per-core IPCs of one scheme run.
type SchemeIPCs struct {
	IPCs      []float64
	TotalGBps float64
}

// runSystem builds and measures one configuration of a figure's row for
// app, unless the resume cache already holds it (see cacheKey), in which
// case the cached measurement short-circuits the simulation entirely.
func runSystem(figure int, app string, scheme config.Scheme, specs []sim.CoreSpec, opts Options) (SchemeIPCs, error) {
	key := cacheKey(figure, app, scheme, opts)
	if opts.Cache != nil {
		if out, ok := opts.Cache.get(key); ok {
			return out, nil
		}
	}
	cfg := config.Default(len(specs), scheme)
	sys, err := sim.New(cfg, specs)
	if err != nil {
		return SchemeIPCs{}, err
	}
	if opts.Attach != nil {
		opts.Attach(sys)
	}
	res, err := sys.Measure(opts.ctxOf(), opts.Warmup, opts.Window)
	if err != nil {
		return SchemeIPCs{}, err
	}
	out := SchemeIPCs{TotalGBps: res.TotalGBps}
	for _, c := range res.Cores {
		out.IPCs = append(out.IPCs, c.IPC)
	}
	if opts.Cache != nil {
		if err := opts.Cache.put(key, out); err != nil {
			return SchemeIPCs{}, err
		}
	}
	return out, nil
}

// Figure9Row is one SPEC co-runner's result on the two-core system.
type Figure9Row struct {
	App string
	// Normalized IPCs (vs the insecure baseline under the same
	// co-location), per Figure 9: the victim (DocDist), the SPEC app,
	// and their average, for FS-BTA and DAGguise.
	FSBTAVictim, FSBTASpec, FSBTAAvg          float64
	DAGguiseVictim, DAGguiseSpec, DAGguiseAvg float64
}

// Figure9Result is the full two-core overhead experiment.
type Figure9Result struct {
	Rows []Figure9Row
	// Geomean of the per-app average normalized IPCs.
	FSBTAGeomean, DAGguiseGeomean float64
}

// Figure9 reproduces the two-core experiment: DocDist protected by each
// scheme, co-located with each SPEC-like application.
func Figure9(opts Options) (*Figure9Result, error) {
	apps := opts.apps()
	res := &Figure9Result{Rows: make([]Figure9Row, len(apps))}
	mkVic, err := docdistMaker(11)
	if err != nil {
		return nil, err
	}
	err = forEachApp(apps, opts, func(i int, app string) error {
		mkCo := appMaker(app, int64(i)+21)
		specs := func(protected bool) ([]sim.CoreSpec, error) {
			v, err := mkVic()
			if err != nil {
				return nil, err
			}
			v.Protected = protected
			co, err := mkCo()
			if err != nil {
				return nil, err
			}
			return []sim.CoreSpec{v, co}, nil
		}
		insSpecs, err := specs(false)
		if err != nil {
			return err
		}
		base, err := runSystem(9, app, config.Insecure, insSpecs, opts)
		if err != nil {
			return err
		}
		fsSpecs, err := specs(true)
		if err != nil {
			return err
		}
		fs, err := runSystem(9, app, config.FSBTA, fsSpecs, opts)
		if err != nil {
			return err
		}
		dagSpecs, err := specs(true)
		if err != nil {
			return err
		}
		dag, err := runSystem(9, app, config.DAGguise, dagSpecs, opts)
		if err != nil {
			return err
		}
		row := Figure9Row{App: app}
		row.FSBTAVictim = fs.IPCs[0] / base.IPCs[0]
		row.FSBTASpec = fs.IPCs[1] / base.IPCs[1]
		row.FSBTAAvg = (row.FSBTAVictim + row.FSBTASpec) / 2
		row.DAGguiseVictim = dag.IPCs[0] / base.IPCs[0]
		row.DAGguiseSpec = dag.IPCs[1] / base.IPCs[1]
		row.DAGguiseAvg = (row.DAGguiseVictim + row.DAGguiseSpec) / 2
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	var fsAvgs, dagAvgs []float64
	for _, row := range res.Rows {
		fsAvgs = append(fsAvgs, row.FSBTAAvg)
		dagAvgs = append(dagAvgs, row.DAGguiseAvg)
	}
	if res.FSBTAGeomean, err = stats.Geomean(fsAvgs); err != nil {
		return nil, err
	}
	if res.DAGguiseGeomean, err = stats.Geomean(dagAvgs); err != nil {
		return nil, err
	}
	return res, nil
}

// Figure10Row is one SPEC co-runner's result on the eight-core system.
type Figure10Row struct {
	App string
	// Per Figure 10: average normalized IPC of the whole system under
	// each scheme, plus the per-class normalized IPCs.
	FSBTAAvg, DAGguiseAvg         float64
	FSBTAVictims, DAGguiseVictims float64 // mean over the 4 protected cores
	FSBTASpec, DAGguiseSpec       float64 // mean over the 4 SPEC cores
}

// Figure10Result is the scalability experiment.
type Figure10Result struct {
	Rows                          []Figure10Row
	FSBTAGeomean, DAGguiseGeomean float64
}

// Figure10 reproduces the eight-core experiment: two DocDist and two DNA
// victims protected, four identical SPEC co-runners unprotected.
func Figure10(opts Options) (*Figure10Result, error) {
	apps := opts.apps()
	res := &Figure10Result{Rows: make([]Figure10Row, len(apps))}
	d1, err := docdistMaker(11)
	if err != nil {
		return nil, err
	}
	d2, err := docdistMaker(13)
	if err != nil {
		return nil, err
	}
	n1, err := dnaMaker(17)
	if err != nil {
		return nil, err
	}
	n2, err := dnaMaker(19)
	if err != nil {
		return nil, err
	}
	victims := []specMaker{d1, n1, d2, n2}
	err = forEachApp(apps, opts, func(i int, app string) error {
		build := func(protected bool) ([]sim.CoreSpec, error) {
			var specs []sim.CoreSpec
			for _, mk := range victims {
				v, err := mk()
				if err != nil {
					return nil, err
				}
				v.Protected = protected
				v.Defense = EightCoreDefense()
				specs = append(specs, v)
				co, err := appMaker(app, int64(len(specs))*31+int64(i))()
				if err != nil {
					return nil, err
				}
				specs = append(specs, co)
			}
			return specs, nil
		}
		insSpecs, err := build(false)
		if err != nil {
			return err
		}
		base, err := runSystem(10, app, config.Insecure, insSpecs, opts)
		if err != nil {
			return err
		}
		fsSpecs, err := build(true)
		if err != nil {
			return err
		}
		fs, err := runSystem(10, app, config.FSBTA, fsSpecs, opts)
		if err != nil {
			return err
		}
		dagSpecs, err := build(true)
		if err != nil {
			return err
		}
		dag, err := runSystem(10, app, config.DAGguise, dagSpecs, opts)
		if err != nil {
			return err
		}
		row := Figure10Row{App: app}
		var fsAll, dagAll []float64
		var fsVic, dagVic, fsSpec, dagSpec []float64
		for c := 0; c < 8; c++ {
			fn := fs.IPCs[c] / base.IPCs[c]
			dn := dag.IPCs[c] / base.IPCs[c]
			fsAll = append(fsAll, fn)
			dagAll = append(dagAll, dn)
			if c%2 == 0 { // protected cores are at even indices
				fsVic = append(fsVic, fn)
				dagVic = append(dagVic, dn)
			} else {
				fsSpec = append(fsSpec, fn)
				dagSpec = append(dagSpec, dn)
			}
		}
		row.FSBTAAvg = stats.Mean(fsAll)
		row.DAGguiseAvg = stats.Mean(dagAll)
		row.FSBTAVictims = stats.Mean(fsVic)
		row.DAGguiseVictims = stats.Mean(dagVic)
		row.FSBTASpec = stats.Mean(fsSpec)
		row.DAGguiseSpec = stats.Mean(dagSpec)
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	var fsAvgs, dagAvgs []float64
	for _, row := range res.Rows {
		fsAvgs = append(fsAvgs, row.FSBTAAvg)
		dagAvgs = append(dagAvgs, row.DAGguiseAvg)
	}
	if res.FSBTAGeomean, err = stats.Geomean(fsAvgs); err != nil {
		return nil, err
	}
	if res.DAGguiseGeomean, err = stats.Geomean(dagAvgs); err != nil {
		return nil, err
	}
	return res, nil
}

// Figure7 runs the DocDist profiling sweep over the paper's search space.
func Figure7(opts Options) (*profile.Result, error) {
	tr, err := victim.DocDistTrace(11, victim.DefaultDocDist())
	if err != nil {
		return nil, err
	}
	mk := func() trace.Source {
		cp := *tr
		return &cp
	}
	space := rdag.DefaultSpace(8)
	return profile.Sweep(mk, space, profile.Options{
		Warmup: opts.Warmup, Window: opts.Window, KneeFraction: 0.85,
		Attach: opts.Attach,
	})
}

// Table1Row is one scheme's leakage measurement.
type Table1Row struct {
	Scheme      config.Scheme
	AggregateMI float64
	// AggMILo / AggMIHi bound AggregateMI with a percentile-bootstrap 95%
	// confidence interval; AggThreshold and SeqThreshold are the
	// permutation-calibrated rejection thresholds (1% false-positive rate)
	// for the aggregate and per-position estimators.
	AggMILo, AggMIHi float64
	AggThreshold     float64
	SequenceMI       float64
	SeqThreshold     float64
	Accuracy         float64
	// Secure is the *measured* verdict: both MI estimates at or below
	// their calibrated thresholds (it used to be hard-coded from the
	// scheme's paper classification, which is kept as Claimed).
	Secure bool
	// Claimed is the paper's classification of the scheme.
	Claimed bool
}

// Calibration defaults of the Table 1 thresholds and intervals.
const (
	table1Alpha        = 0.01
	table1Permutations = 200
	table1Bootstrap    = 200
	table1Confidence   = 0.95
)

// figure5Pair returns the Figure 5 secret pair, the attacker probe and the
// Camouflage distribution every leakage experiment shares.
func figure5Pair() (attack.Pattern, attack.Pattern, attack.Probe, camouflage.Distribution) {
	s0 := attack.Pattern{Gaps: []uint64{100}, Banks: []int{0, 1, 2, 3}}
	s1 := attack.Pattern{Gaps: []uint64{200}, Banks: []int{0, 1, 2, 3}}
	probe := attack.Probe{Bank: 0, Row: 0, Gap: 120}
	dist := camouflage.Distribution{Intervals: []uint64{200, 400}}
	return s0, s1, probe, dist
}

// Table1Observed quantifies each scheme's leakage for the Figure 5 secret
// pair: the security column of the design-goals comparison. attach, when
// non-nil, is called on every harness before it runs.
func Table1Observed(probes, trials int, attach func(*attack.Harness)) ([]Table1Row, error) {
	s0, s1, probe, dist := figure5Pair()
	ctx := context.Background()
	var rows []Table1Row
	for _, scheme := range []config.Scheme{
		config.Insecure, config.Camouflage, config.FixedService,
		config.FSBTA, config.TemporalPartitioning, config.DAGguise,
	} {
		res, err := attack.MeasureLeakageOpts(scheme, DefaultDefense(), dist, s0, s1, probe, probes, trials,
			attack.MeasureOpts{Attach: attach})
		if err != nil {
			return nil, err
		}
		// One deterministic calibration stream per scheme: the thresholds
		// and intervals in the printed table are reproducible run to run.
		rnd := rng.New(4243 + int64(scheme))
		row := Table1Row{
			Scheme:      scheme,
			AggregateMI: res.AggregateMI,
			SequenceMI:  res.SequenceMI,
			Accuracy:    res.Accuracy,
			Claimed:     scheme.Secure(),
		}
		// Under a context that never fires, the only error is a side too
		// small to calibrate; it leaves the threshold or interval at 0, as
		// the context-free forms do.
		row.AggThreshold, _ = audit.MIPermutationThresholdCtx(ctx, res.Raw0, res.Raw1, attack.LeakageBinWidth,
			table1Permutations, table1Alpha, rnd)
		row.SeqThreshold = audit.SequencePermutationThreshold(res.Seq0, res.Seq1, attack.LeakageBinWidth,
			table1Permutations, table1Alpha, rnd)
		row.AggMILo, row.AggMIHi, _ = audit.MIBootstrapCICtx(ctx, res.Raw0, res.Raw1, attack.LeakageBinWidth,
			table1Bootstrap, table1Confidence, rnd)
		row.Secure = row.AggregateMI <= row.AggThreshold && row.SequenceMI <= row.SeqThreshold
		rows = append(rows, row)
	}
	return rows, nil
}

// Audit runs the streaming leakage audit on the Figure 5 secret pair under
// the scheme — the cmd/dagaudit entry point and the CI leakage-budget
// gate. attach, when non-nil, is called on each harness before it runs.
func Audit(scheme config.Scheme, probes int, cfg audit.Config, attach func(*attack.Harness)) (*audit.Report, error) {
	return AuditCtx(context.Background(), scheme, probes, cfg, attach)
}

// AuditCtx is Audit with cooperative cancellation threaded into the
// auditor's per-window calibration loops (see attack.AuditLeakage).
func AuditCtx(ctx context.Context, scheme config.Scheme, probes int, cfg audit.Config, attach func(*attack.Harness)) (*audit.Report, error) {
	s0, s1, probe, dist := figure5Pair()
	return attack.AuditLeakage(ctx, scheme, DefaultDefense(), dist, s0, s1, probe, probes, cfg, attach)
}

// AuditStreams runs the Figure 5 secret pair under the scheme and returns
// the two raw attacker-observable sample streams — the wire-format input
// of the dagauditd service path, deterministic in (scheme, probes, seed),
// so a traffic generator can regenerate and replay them byte-identically
// after a crash.
//
// seed is the shaper seed and reaches nothing else: the insecure scheme
// has no shaper, and DAGguise's seed only draws the rows and columns of
// its fake requests, which cannot change timing under the closed-row
// policy. The insecure and DAGguise streams are therefore the same at
// every seed (TestPinnedLeakageOutputs pins seeds 1 and 2 to one hash
// each).
func AuditStreams(scheme config.Scheme, probes int, seed int64) (s0, s1 []audit.Sample, err error) {
	p0, p1, probe, dist := figure5Pair()
	return attack.CollectTaps(scheme, DefaultDefense(), dist, p0, p1, probe, probes, seed, nil)
}

// FormatTable1 renders the rows as an aligned text table.
func FormatTable1(rows []Table1Row) string {
	out := fmt.Sprintf("%-12s %12s %17s %9s %12s %9s %9s %9s %9s\n",
		"scheme", "aggregate MI", "95% ci", "thr", "sequence MI", "thr", "accuracy", "secure", "claimed")
	for _, r := range rows {
		out += fmt.Sprintf("%-12s %12.4f %8.4f..%-8.4f %9.4f %12.4f %9.4f %9.3f %9v %9v\n",
			r.Scheme, r.AggregateMI, r.AggMILo, r.AggMIHi, r.AggThreshold,
			r.SequenceMI, r.SeqThreshold, r.Accuracy, r.Secure, r.Claimed)
	}
	return out
}

// FormatFigure9 renders the rows as an aligned text table.
func FormatFigure9(r *Figure9Result) string {
	out := fmt.Sprintf("%-12s %10s %10s %10s %10s %10s %10s\n",
		"app", "fs:victim", "fs:spec", "fs:avg", "dag:victim", "dag:spec", "dag:avg")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-12s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			row.App, row.FSBTAVictim, row.FSBTASpec, row.FSBTAAvg,
			row.DAGguiseVictim, row.DAGguiseSpec, row.DAGguiseAvg)
	}
	out += fmt.Sprintf("%-12s %21s %10.3f %21s %10.3f\n", "geomean", "", r.FSBTAGeomean, "", r.DAGguiseGeomean)
	return out
}

// FormatFigure10 renders the rows as an aligned text table.
func FormatFigure10(r *Figure10Result) string {
	out := fmt.Sprintf("%-12s %10s %10s %10s %10s %10s %10s\n",
		"app", "fs:victim", "fs:spec", "fs:avg", "dag:victim", "dag:spec", "dag:avg")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-12s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			row.App, row.FSBTAVictims, row.FSBTASpec, row.FSBTAAvg,
			row.DAGguiseVictims, row.DAGguiseSpec, row.DAGguiseAvg)
	}
	out += fmt.Sprintf("%-12s %21s %10.3f %21s %10.3f\n", "geomean", "", r.FSBTAGeomean, "", r.DAGguiseGeomean)
	return out
}
