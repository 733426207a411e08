// Command dagattack demonstrates the memory timing side channel and its
// mitigation:
//
//	dagattack -fig 1          # Figure 1: the attack primer on the insecure baseline
//	dagattack -table 1        # Table 1: leakage per scheme, with calibrated thresholds
//	dagattack -table 1 -metrics               # append the per-domain metrics table
//	dagattack -fig 1 -trace-out attack.json   # export a Perfetto-loadable event trace
package main

import (
	"flag"
	"fmt"
	"os"

	"dagguise/internal/attack"
	"dagguise/internal/eval"
	"dagguise/internal/obs"
)

func main() {
	fig := flag.Int("fig", 0, "figure to reproduce (1)")
	table := flag.Int("table", 0, "table to reproduce (1)")
	probes := flag.Int("probes", 200, "attacker probes per trial")
	trials := flag.Int("trials", 3, "trials per secret")
	metrics := flag.Bool("metrics", false, "print the per-domain observability metrics table after the experiment")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this path")
	flag.Parse()

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
	defer func() {
		if *metrics {
			fmt.Println()
			fmt.Print(obs.FormatSummary(mx.Snapshot(), 0))
		}
		if tr != nil {
			if err := obs.WriteChromeTraceFile(*traceOut, tr); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dagattack: wrote %d trace events to %s (open in https://ui.perfetto.dev)\n", tr.Len(), *traceOut)
		}
	}()

	switch {
	case *fig == 1:
		rows, err := attack.Figure1Primer(*probes, attach)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Figure 1: attacker probe latency by victim behaviour (insecure baseline)")
		for _, r := range rows {
			fmt.Printf("  %-28s mean latency %7.1f cycles\n", r.Scenario, r.MeanLatency)
		}
	case *table == 1:
		rows, err := eval.Table1Observed(*probes, *trials, attach)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Table 1: leakage of the Figure-5 secret pair per scheme")
		fmt.Print(eval.FormatTable1(rows))
		fmt.Println("\nMI in bits per probe position with permutation-calibrated thresholds (1% FPR);")
		fmt.Println("accuracy is a leave-one-out nearest-neighbour secret guesser (0.5 = chance).")
		fmt.Println("Where every trial's probe latencies are identical, each guess is a tie broken")
		fmt.Println("by a coin seeded with 1, which hits 2 of the 6 guesses at the default 3 trials")
		fmt.Println("per secret: the 0.333 of such rows is that coin, not a distinction. secure is")
		fmt.Println("the measured verdict, claimed the paper's classification")
	default:
		fmt.Fprintln(os.Stderr, "dagattack: pass -fig 1 or -table 1")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dagattack:", err)
	os.Exit(1)
}
