// Command dagaudit runs the streaming leakage audit: it replays the
// Figure 5 secret pair under a protection scheme with audit taps on the
// attacker's probe stream and reports, window by window, the calibrated
// secret-conditioned statistics (Welch's t, Kolmogorov–Smirnov, bias-
// corrected mutual information with bootstrap confidence intervals). The
// exit code gates CI on the leakage budget.
//
//	dagaudit -scheme dagguise                  # audit DAGguise, exit 1 on leakage
//	dagaudit -scheme insecure -expect leak     # assert the baseline trips the detector
//	dagaudit -scheme fs-bta -json audit.json   # machine-readable report artifact
//	dagaudit -scheme dagguise -budget 0.02     # tighten the budget to 0.02 bits
//	dagaudit -scheme camouflage -metrics       # append the obs metrics table
//
// Exit codes: 0 = the expectation held (default expectation: within
// budget), 1 = it did not, 2 = usage error, 3 = interrupted by a signal
// or -timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"dagguise/internal/attack"
	"dagguise/internal/audit"
	"dagguise/internal/config"
	"dagguise/internal/eval"
	"dagguise/internal/obs"
)

func main() {
	schemeName := flag.String("scheme", "dagguise", "scheme to audit (insecure, fs, fs-bta, tp, camouflage, dagguise)")
	probes := flag.Int("probes", 400, "attacker probes per secret run")
	window := flag.Int("window", 100, "samples per secret per audit window")
	stride := flag.Int("stride", 0, "window start spacing (0 = window, smaller overlaps)")
	bin := flag.Uint64("bin", 8, "MI histogram bin width in cycles (0 = unbinned)")
	budget := flag.Float64("budget", 0.05, "leakage budget in bits per window")
	alpha := flag.Float64("alpha", 0.01, "per-window false-positive rate of the calibrated detectors")
	perms := flag.Int("perms", 200, "permutations per window for threshold calibration")
	boot := flag.Int("boot", 200, "bootstrap resamples behind the MI confidence interval")
	conf := flag.Float64("confidence", 0.95, "MI confidence-interval level")
	seed := flag.Int64("seed", 1, "shaper and calibration seed")
	jsonOut := flag.String("json", "", "write the JSON audit report to this path")
	expect := flag.String("expect", "clean", "expected verdict gating the exit code: clean or leak")
	metrics := flag.Bool("metrics", false, "print the per-domain observability metrics table after the audit")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this path")
	timeout := flag.Duration("timeout", 0, "abort the audit after this long (0 = no deadline)")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	if *expect != "clean" && *expect != "leak" {
		fmt.Fprintf(os.Stderr, "dagaudit: -expect must be clean or leak, got %q\n", *expect)
		os.Exit(2)
	}
	scheme, err := config.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagaudit:", err)
		os.Exit(2)
	}

	cfg := audit.Config{
		Window:       *window,
		Stride:       *stride,
		BinWidth:     *bin,
		Budget:       *budget,
		Alpha:        *alpha,
		Permutations: *perms,
		Bootstrap:    *boot,
		Confidence:   *conf,
		Seed:         *seed,
	}

	var mx *obs.Registry
	var tr *obs.Tracer
	var attach func(*attack.Harness)
	if *metrics {
		mx = obs.NewRegistry(3) // system slot + victim + attacker domains
	}
	if *traceOut != "" {
		tr = obs.NewTracer(0)
	}
	if mx != nil || tr != nil {
		attach = func(h *attack.Harness) { h.Observe(mx, tr) }
	}

	rep, err := eval.AuditCtx(ctx, scheme, *probes, cfg, attach)
	if err != nil {
		if errors.Is(err, audit.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "dagaudit: interrupted:", err)
			os.Exit(3)
		}
		fatal(err)
	}
	fmt.Print(rep.Format())
	if *metrics {
		fmt.Println()
		fmt.Print(obs.FormatSummary(mx.Snapshot(), 0))
	}
	if tr != nil {
		if err := obs.WriteChromeTraceFile(*traceOut, tr); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dagaudit: wrote %d trace events to %s (open in https://ui.perfetto.dev)\n", tr.Len(), *traceOut)
	}
	if *jsonOut != "" {
		data, err := rep.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dagaudit: wrote audit report to %s\n", *jsonOut)
	}

	ok := rep.WithinBudget == (*expect == "clean")
	if !ok {
		if rep.WithinBudget {
			fmt.Fprintf(os.Stderr, "dagaudit: expected leakage but %s stayed within the %.4f-bit budget\n",
				scheme, cfg.Budget)
		} else {
			fmt.Fprintf(os.Stderr, "dagaudit: %s exceeded the %.4f-bit budget at window %d (cycle %d)\n",
				scheme, cfg.Budget, rep.FirstExceeded, rep.FirstExceededCycle)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dagaudit:", err)
	os.Exit(1)
}
