// Command dagprof runs the offline profiling phase (§4.3, Figure 7): it
// sweeps the rDAG template search space over the DocDist victim running
// alone, prints the normalized-IPC and allocated-bandwidth series per
// parallel-sequence count, and reports the selected knee-point defense
// rDAG.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dagguise/internal/eval"
	"dagguise/internal/obs"
	"dagguise/internal/sim"
)

func main() {
	warmup := flag.Uint64("warmup", 100_000, "warmup cycles per candidate")
	window := flag.Uint64("window", 1_600_000, "measurement cycles per candidate")
	metrics := flag.Bool("metrics", false, "print the per-domain observability metrics table after the sweep")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this path")
	flag.Parse()

	opts := eval.Options{Warmup: *warmup, Window: *window}
	var mx *obs.Registry
	var tr *obs.Tracer
	var simCycles uint64
	if *metrics {
		mx = obs.NewRegistry(2) // profiling runs the victim alone: domains 0 and 1
	}
	if *traceOut != "" {
		tr = obs.NewTracer(0)
	}
	if mx != nil || tr != nil {
		opts.Attach = func(sys *sim.System) {
			simCycles += *warmup + *window
			sys.Observe(mx, tr)
		}
	}

	res, err := eval.Figure7(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagprof:", err)
		os.Exit(1)
	}
	if *metrics {
		defer func() {
			fmt.Println()
			fmt.Print(obs.FormatSummary(mx.Snapshot(), simCycles))
		}()
	}
	if tr != nil {
		if err := obs.WriteChromeTraceFile(*traceOut, tr); err != nil {
			fmt.Fprintln(os.Stderr, "dagprof:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dagprof: wrote %d trace events to %s\n", tr.Len(), *traceOut)
	}

	fmt.Printf("Figure 7: defense rDAG selection for DocDist (baseline IPC %.3f)\n\n", res.BaselineIPC)
	series := res.SeriesBySequences()
	var seqs []int
	for s := range series {
		seqs = append(seqs, s)
	}
	sort.Ints(seqs)
	fmt.Printf("%-10s %-12s %-16s %-20s\n", "sequences", "weight(cpu)", "normalized IPC", "allocated BW (GB/s)")
	for _, s := range seqs {
		for _, p := range series[s] {
			fmt.Printf("%-10d %-12d %-16.3f %-20.2f\n",
				p.Template.Sequences, p.Template.Weight, p.NormalizedIPC, p.AllocatedGBps)
		}
	}
	fmt.Printf("\nselected defense rDAG: %v\n", res.Selected)
}
