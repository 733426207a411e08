// Command dagsim runs the multi-programmed performance experiments and
// prints the Figure 9 (two-core) or Figure 10 (eight-core) rows: the
// normalized IPC of the protected victims and the SPEC-like co-runners
// under FS-BTA and DAGguise, relative to the insecure baseline.
//
// Usage:
//
//	dagsim -cores 2                 # Figure 9 over all 15 co-runners
//	dagsim -cores 8 -apps lbm,xz    # Figure 10 on a subset
//	dagsim -cores 2 -window 200000  # shorter measurement window
//	dagsim -metrics                 # append the per-domain metrics table
//	dagsim -trace-out run.json      # export a Perfetto-loadable event trace
//	dagsim -cycle-profile           # append the per-component cycle-attribution table
//	dagsim -pprof localhost:6060    # live pprof endpoints while it runs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dagguise/internal/eval"
	"dagguise/internal/obs"
	"dagguise/internal/sim"
)

func main() {
	cores := flag.Int("cores", 2, "system size: 2 (Figure 9) or 8 (Figure 10)")
	apps := flag.String("apps", "", "comma-separated co-runner subset (default: all 15)")
	warmup := flag.Uint64("warmup", eval.DefaultOptions().Warmup, "warmup cycles per run")
	window := flag.Uint64("window", eval.DefaultOptions().Window, "measurement cycles per run")
	metrics := flag.Bool("metrics", false, "print the per-domain observability metrics table after the experiment")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this path")
	traceCap := flag.Int("trace-cap", obs.DefaultTraceCap, "event trace ring capacity")
	cycleProf := flag.Bool("cycle-profile", false, "print the per-component cycle-attribution table after the experiment")
	cycleProfOut := flag.String("cycle-profile-out", "", "write the cycle-attribution report as JSON to this path (implies profiling)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	interval := flag.Duration("metrics-interval", 0, "print periodic metric delta snapshots to stderr (e.g. 10s)")
	ckptDir := flag.String("checkpoint-dir", "", "persist completed measurements here so an interrupted sweep can resume")
	resume := flag.Bool("resume", false, "resume a sweep from -checkpoint-dir, skipping measurements already done")
	timeout := flag.Duration("timeout", 0, "stop the sweep after this long (0 = no deadline); combine with -checkpoint-dir to resume later")
	workers := flag.Int("workers", 1, "parallel per-app figure rows (0 = GOMAXPROCS); output is identical at any worker count")
	flag.Parse()

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *workers > 1 && (*cycleProf || *cycleProfOut != "") {
		fmt.Fprintln(os.Stderr, "dagsim: cycle profiling is lap-clocked and single-threaded; forcing -workers 1")
		*workers = 1
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	opts := eval.Options{Warmup: *warmup, Window: *window, Ctx: ctx, Workers: *workers}
	if *apps != "" {
		opts.Apps = strings.Split(*apps, ",")
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "dagsim: -resume requires -checkpoint-dir")
		os.Exit(2)
	}
	cachePath := ""
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
		cachePath = filepath.Join(*ckptDir, "results-cache.json")
		if _, err := os.Stat(cachePath); err == nil && !*resume {
			fmt.Fprintf(os.Stderr, "dagsim: %s already holds completed measurements; pass -resume to continue them or remove the directory to start over\n", cachePath)
			os.Exit(2)
		}
		cache, err := eval.OpenRunCache(cachePath)
		if err != nil {
			fatal(err)
		}
		if n := cache.Cached(map[int]int{2: 9, 8: 10}[*cores], opts); n > 0 {
			fmt.Fprintf(os.Stderr, "dagsim: resuming, %d measurements already cached\n", n)
		}
		opts.Cache = cache
	}

	if *pprofAddr != "" {
		addr, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dagsim: pprof at http://%s/debug/pprof/\n", addr)
	}

	var mx *obs.Registry
	var tr *obs.Tracer
	var prof *obs.CycleProfile
	var simCycles uint64
	if *metrics || *interval > 0 {
		mx = obs.NewRegistry(*cores + 1)
	}
	if *traceOut != "" {
		tr = obs.NewTracer(*traceCap)
	}
	if *cycleProf || *cycleProfOut != "" {
		prof = obs.NewCycleProfile()
	}
	// Attach arms every run's watchdog, so a machine that stops making
	// progress fails with a *sim.SimError instead of spinning until the
	// deadline. It can run from parallel row workers; registry and tracer
	// are thread-safe and the cycle counter is atomic.
	opts.Attach = func(sys *sim.System) {
		sys.SetWatchdog(sim.DefaultWatchdog())
		atomic.AddUint64(&simCycles, *warmup+*window)
		sys.Observe(mx, tr)
		sys.Profile(prof)
	}
	if *interval > 0 {
		stop := obs.StartIntervalDump(os.Stderr, mx, *interval)
		defer stop()
	}
	start := time.Now()
	defer func() {
		if *metrics {
			fmt.Println()
			fmt.Print(obs.FormatSummary(mx.Snapshot(), atomic.LoadUint64(&simCycles)))
		}
		if prof != nil {
			// Coverage is against the whole sweep wall clock, so per-run
			// build and evaluation glue lands in the harness bucket.
			rep := prof.Report(time.Since(start), atomic.LoadUint64(&simCycles))
			if *cycleProf {
				fmt.Println()
				fmt.Print(rep.String())
			}
			if *cycleProfOut != "" {
				if err := writeReport(*cycleProfOut, rep); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "dagsim: wrote cycle-attribution report to %s\n", *cycleProfOut)
			}
		}
		if tr != nil {
			if err := obs.WriteChromeTraceFile(*traceOut, tr); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dagsim: wrote %d trace events to %s (open in https://ui.perfetto.dev)\n", tr.Len(), *traceOut)
		}
	}()

	switch *cores {
	case 2:
		res, err := eval.Figure9(opts)
		if err != nil {
			interrupted(err, cachePath)
			fatal(err)
		}
		fmt.Println("Figure 9: average normalized IPC, DocDist + one SPEC app on two cores")
		fmt.Print(eval.FormatFigure9(res))
		fmt.Printf("\nDAGguise vs FS-BTA system speedup: %.1f%%\n",
			(res.DAGguiseGeomean/res.FSBTAGeomean-1)*100)
	case 8:
		res, err := eval.Figure10(opts)
		if err != nil {
			interrupted(err, cachePath)
			fatal(err)
		}
		fmt.Println("Figure 10: average normalized IPC, 2xDocDist + 2xDNA + 4xSPEC on eight cores")
		fmt.Print(eval.FormatFigure10(res))
		fmt.Printf("\nDAGguise vs FS-BTA system speedup: %.1f%%\n",
			(res.DAGguiseGeomean/res.FSBTAGeomean-1)*100)
	default:
		fatal(fmt.Errorf("unsupported core count %d (use 2 or 8)", *cores))
	}
}

// interrupted exits with status 3 when the sweep stopped on a signal or
// deadline, pointing at the resume command if measurements were persisted.
func interrupted(err error, cachePath string) {
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return
	}
	fmt.Fprintln(os.Stderr, "dagsim: interrupted:", err)
	if cachePath != "" {
		fmt.Fprintln(os.Stderr, "dagsim: completed measurements saved; rerun with -resume to continue")
	}
	os.Exit(3)
}

// writeReport dumps the attribution report as JSON.
func writeReport(path string, rep *obs.ProfReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dagsim:", err)
	os.Exit(1)
}
