// Command dagchaos runs randomized, seed-reported fault-injection
// campaigns against the simulated memory system: for each seed it draws a
// deterministic fault schedule (DRAM refresh storms, response delay/drop,
// shaper backpressure bursts, egress stalls), attaches it to a freshly
// built two-core machine per scheme, and runs with the forward-progress
// watchdog armed. Any invariant violation is printed with the campaign
// seed, so the failure replays exactly with `-seed <n> -campaigns 1`.
//
// For DAGguise it additionally checks non-interference under faults: two
// runs differing only in the victim's secret must produce bit-identical
// attacker-observable response timing streams under the identical fault
// schedule.
//
// Campaigns run as a sweep on the fleet pool (internal/fleet), one shard
// per (scheme, seed), fanned over -workers. SIGINT, SIGTERM or -timeout
// park the running shards at a chunk boundary; rerunning with the same
// flags and -checkpoint-dir resumes from the fleet manifest and the
// mid-shard checkpoints and writes a report byte-identical to an
// uninterrupted sweep. A manifest written for different flags is refused.
//
// Usage:
//
//	dagchaos                          # 10 campaigns, every scheme
//	dagchaos -campaigns 50 -seed 7    # longer sweep from base seed 7
//	dagchaos -scheme dagguise         # one scheme only
//	dagchaos -cycles 200000           # longer runs
//	dagchaos -fail-trace fail.json    # Perfetto postmortem of the first failure
//	dagchaos -spans -trace-out t.json # one span per shard attempt in the export
//	dagchaos -cycle-profile           # per-component cycle-attribution table
//	dagchaos -checkpoint-dir state -checkpoint-every 50000 -out report.json
//
// With -shards it instead sweeps the multi-channel machine: a
// many-tenant non-interference sweep split into (scheme x seed x
// channel-slice) shards on the same pool. -scheme all sweeps insecure and
// DAGguise; any other -scheme sweeps that scheme alone. A SIGKILL'd fleet
// resumes from its manifest and merges to identical bytes:
//
//	dagchaos -shards 4 -workers 8 -channels 4 -domains 100 \
//	    -cycles 20000 -checkpoint-dir fleetdir -out report.json
//	dagchaos -shards 2 -channels 2 -domains 12 -campaigns 4 \
//	    -cycles 400000 -scheme fs-bta
//
// With -target it instead becomes a traffic generator against a running
// dagauditd leakage-audit service: deterministic tenant streams (real
// simulated tap streams and/or synthetic leaky/clean tenants) are pushed
// through the auditd client, optionally under client-side transport chaos,
// and the fetched verdicts can gate CI:
//
//	dagchaos -target http://127.0.0.1:9470 -serve-schemes insecure,dagguise \
//	    -chaos -verdicts-out verdicts.json -gate insecure=leak,dagguise=clean
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dagguise/internal/ckpt"
	"dagguise/internal/config"
	"dagguise/internal/fleet"
	"dagguise/internal/obs"
	"dagguise/internal/sim"
)

// schemes lists the campaign's evaluation schemes in sweep order.
var schemes = []string{"insecure", "fs", "fs-bta", "tp", "camouflage", "dagguise"}

// runOpts are the flags every sweep shares.
type runOpts struct {
	dir        string
	every      uint64
	retries    int
	timeout    time.Duration
	out        string
	traceOut   string
	failTrace  string
	pprofAddr  string
	spans      bool
	metrics    bool
	cycleProf  bool
	fleetFlags *fleetFlags
}

func main() {
	campaigns := flag.Int("campaigns", 10, "number of seeds per scheme (campaign i uses seed+i)")
	baseSeed := flag.Int64("seed", 1, "base campaign seed")
	cycles := flag.Uint64("cycles", 120_000, "cycles per run")
	events := flag.Int("events", 12, "fault events per two-core campaign (0 = clean runs)")
	schemeFlag := flag.String("scheme", "all", "scheme to torture: all, "+strings.Join(schemes, ", ")+" (with -shards, all means insecure and dagguise)")
	app := flag.String("app", "lbm", "co-runner workload of the two-core machine")
	var o runOpts
	flag.BoolVar(&o.metrics, "metrics", false, "print the observability metrics table after the sweep")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON of the sweep to this path")
	flag.StringVar(&o.failTrace, "fail-trace", "", "dump a Perfetto-viewable event trace of the first failing two-core campaign to this path")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&o.dir, "checkpoint-dir", "", "directory for the fleet manifest and mid-shard checkpoints; rerunning with the same flags resumes it (empty = throwaway directory, no checkpoints)")
	flag.Uint64Var(&o.every, "checkpoint-every", 50_000, "mid-shard checkpoint cadence in cycles (with -checkpoint-dir)")
	flag.DurationVar(&o.timeout, "timeout", 0, "wall-clock budget for the sweep (0 = none); on expiry running shards park at a chunk boundary and the sweep exits resumably")
	flag.IntVar(&o.retries, "retries", 0, "retries per shard after a failed attempt")
	flag.StringVar(&o.out, "out", "", "write the merged sweep report (deterministic JSON) to this path")
	flag.BoolVar(&o.spans, "spans", false, "record one span per shard attempt (exported with -trace-out)")
	flag.BoolVar(&o.cycleProf, "cycle-profile", false, "print the per-component cycle-attribution table after a two-core sweep (forces -workers 1)")
	topts := registerTrafficFlags()
	o.fleetFlags = registerFleetFlags()
	flag.Parse()

	// -target switches dagchaos from torturing the simulator to torturing
	// a running dagauditd instance (see traffic.go).
	if topts.target != "" {
		os.Exit(runTraffic(topts, *baseSeed))
	}
	if *campaigns <= 0 {
		fmt.Fprintln(os.Stderr, "dagchaos: -campaigns must be at least 1")
		os.Exit(2)
	}
	seeds := make([]int64, *campaigns)
	for i := range seeds {
		seeds[i] = *baseSeed + int64(i)
	}
	names := schemes
	if *schemeFlag != "all" {
		if _, err := config.ParseScheme(*schemeFlag); err != nil {
			fmt.Fprintf(os.Stderr, "dagchaos: unknown scheme %q (use all, %s)\n", *schemeFlag, strings.Join(schemes, ", "))
			os.Exit(2)
		}
		names = []string{*schemeFlag}
	}
	var sweep fleet.Sweep
	if o.fleetFlags.shards > 0 {
		// -shards switches to the multi-channel, many-tenant machine (see
		// fleet.go), where -scheme all keeps fleet.DefaultSweep's schemes.
		sweep = clusterSweep(o.fleetFlags, seeds, *cycles)
		if *schemeFlag != "all" {
			sweep.Schemes = names
		}
	} else {
		sweep = fleet.TwoCoreSweep(names, seeds, *cycles, *events, *app)
	}
	if err := sweep.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos:", err)
		os.Exit(2)
	}
	os.Exit(runFleet(sweep, o))
}

// runFleet runs a sweep on the fleet pool under signal supervision, prints
// its verdicts and enforces the gate. Exit codes: 0 clean, 1 failure,
// 2 usage, 3 interrupted (resumable by rerunning with the same flags and
// -checkpoint-dir).
func runFleet(sweep fleet.Sweep, o runOpts) int {
	f := o.fleetFlags
	if o.pprofAddr != "" {
		addr, err := obs.ServePprof(o.pprofAddr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "dagchaos: pprof at http://%s/debug/pprof/\n", addr)
	}
	dir, every := o.dir, o.every
	if dir == "" {
		tmp, err := os.MkdirTemp("", "dagchaos-fleet-*")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(tmp)
		// Nothing can resume from a directory deleted at exit, so skip
		// the mid-shard checkpoints altogether.
		dir, every = tmp, 0
	}
	// Fleet counters go to mx; the machines of a two-core sweep are
	// observed through Attach into simMx, tr and prof.
	var mx, simMx *obs.Registry
	var tr *obs.Tracer
	var sp *obs.Spans
	var prof *obs.CycleProfile
	if o.metrics || f.promOut != "" {
		mx = obs.NewRegistry(1)
	}
	if o.traceOut != "" {
		tr = obs.NewTracer(0)
	}
	if o.spans {
		sp = obs.NewSpans(tr) // tr may be nil: IDs still thread through the pool
	}
	var attach func(*sim.System)
	var simCycles atomic.Uint64
	if sweep.TwoCore != nil {
		if o.metrics {
			simMx = obs.NewRegistry(3) // two cores + the system-wide slot
		}
		if o.cycleProf {
			prof = obs.NewCycleProfile()
			if f.workers != 1 {
				fmt.Fprintln(os.Stderr, "dagchaos: cycle profiling is lap-clocked and single-threaded; forcing -workers 1")
				f.workers = 1
			}
		}
		if simMx != nil || tr != nil || prof != nil {
			attach = func(sys *sim.System) {
				simCycles.Add(sweep.Cycles)
				sys.Observe(simMx, tr)
				sys.Profile(prof)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	start := time.Now()
	rep, runErr := fleet.Run(ctx, sweep, fleet.Options{
		Workers:         f.workers,
		Dir:             dir,
		CheckpointEvery: every,
		Retries:         o.retries,
		Backoff:         100 * time.Millisecond,
		MaxBackoff:      5 * time.Second,
		Log:             os.Stderr,
		Spans:           sp,
		Mx:              mx,
		Attach:          attach,
	})
	switch {
	case errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "dagchaos: interrupted (%v); manifest saved, rerun with the same flags and -checkpoint-dir %s to resume\n", runErr, dir)
		return 3
	case runErr != nil && !errors.Is(runErr, fleet.ErrShardsIncomplete):
		return fail(runErr)
	}
	failures := 0
	if sweep.TwoCore != nil {
		m, lerr := fleet.LoadManifest(filepath.Join(dir, fleet.ManifestName))
		if lerr != nil {
			return fail(lerr)
		}
		failures = printCampaigns(sweep, m.Records, o.failTrace)
	} else if rep != nil {
		printVerdicts(sweep, rep)
	}
	if runErr != nil {
		// Failed shards: no report merges, but the run's observations
		// are still written below.
		fmt.Fprintln(os.Stderr, "dagchaos:", runErr)
	}

	if o.out != "" && rep != nil {
		blob, err := rep.Encode()
		if err != nil {
			return fail(err)
		}
		if err := ckpt.WriteFileAtomic(o.out, blob); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "dagchaos: wrote report to %s\n", o.out)
	}
	if o.metrics {
		fmt.Println()
		if simMx != nil {
			fmt.Print(obs.FormatSummary(simMx.Snapshot(), 0))
		} else {
			fmt.Print(obs.FormatSummary(mx.Snapshot(), 0))
		}
	}
	if prof != nil {
		fmt.Println()
		fmt.Print(prof.Report(time.Since(start), simCycles.Load()).String())
	}
	if tr != nil {
		if err := obs.WriteChromeTraceFile(o.traceOut, tr); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "dagchaos: wrote %d trace events to %s\n", tr.Len(), o.traceOut)
	}
	if f.promOut != "" {
		if code := writeFleetProm(f.promOut, dir, mx); code != 0 {
			return code
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "dagchaos: %d campaign(s) failed\n", failures)
	}
	if failures > 0 || runErr != nil {
		return 1
	}
	if err := rep.Gate(); err != nil {
		return fail(err)
	}
	return 0
}

// printCampaigns prints one ok/FAIL line per two-core shard, i.e. per
// (scheme, seed), in sweep order, dumps the first failure's postmortem
// when asked, and returns the failure count.
func printCampaigns(sweep fleet.Sweep, recs []fleet.Record, failTrace string) int {
	failures := 0
	for _, rec := range recs {
		sh, r := rec.Shard, rec.Result
		var problem string
		switch {
		case rec.Status == fleet.StatusFailed:
			problem = rec.Error
		case r == nil:
			continue // not terminal: no outcome to print
		case r.DigestB != "" && r.Counters.TapSamples == 0:
			problem = "non-interference: no response samples recorded"
		case r.Interference:
			problem = fmt.Sprintf("non-interference: response streams diverge (digests %.12s vs %.12s)", r.DigestA, r.DigestB)
		}
		if problem != "" {
			fmt.Printf("FAIL  %-10s seed=%-6d %s\n", sh.Scheme, sh.Seed, problem)
			if failures++; failures == 1 && failTrace != "" {
				dumpFailTrace(failTrace, sweep, sh)
			}
			continue
		}
		line := fmt.Sprintf("ok    %-10s seed=%-6d %d events", sh.Scheme, sh.Seed, r.FaultEvents)
		if r.DigestB != "" {
			line += "  response streams secret-independent"
		}
		fmt.Println(line)
	}
	return failures
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dagchaos:", err)
	return 1
}

// dumpFailTrace replays a failing campaign's secret-A run with an event
// tracer attached and exports the postmortem as Chrome trace-event JSON:
// the violation marker sits at the end of the Perfetto timeline, with the
// bank, shaper and refresh activity leading up to it.
func dumpFailTrace(path string, sweep fleet.Sweep, sh fleet.Shard) {
	err := func() error {
		scheme, err := config.ParseScheme(sh.Scheme)
		if err != nil {
			return err
		}
		sys, err := fleet.NewTwoCore(scheme, sweep.TwoCore.App, int64(sweep.SecretA))
		if err != nil {
			return err
		}
		tr := obs.NewTracer(0)
		sys.Observe(nil, tr)
		fp, err := sweep.Fingerprint()
		if err != nil {
			return err
		}
		if sched := sweep.ShardFaultSchedule(fp, sh); len(sched.Events) > 0 {
			if err := sys.AttachFaults(sched); err != nil {
				return err
			}
		}
		if err := sys.Run(context.Background(), sh.Cycles); err == nil {
			fmt.Fprintln(os.Stderr, "dagchaos: replay of failing seed did not fail; writing trace anyway")
		}
		if err := obs.WriteChromeTraceFile(path, tr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dagchaos: wrote failure postmortem (%d events) to %s (open in https://ui.perfetto.dev)\n", tr.Len(), path)
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos: fail-trace:", err)
	}
}
