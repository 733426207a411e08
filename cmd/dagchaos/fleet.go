package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dagguise/internal/ckpt"
	"dagguise/internal/fleet"
	"dagguise/internal/obs"
	"dagguise/internal/telem"
)

// fleetFlags shape the fleet pool every sweep runs on, and with -shards
// select the multi-channel, many-tenant machine instead of the two-core
// campaign machine.
type fleetFlags struct {
	shards        int
	workers       int
	channels      int
	domains       int
	telemDir      string
	promOut       string
	join          bool
	proc          string
	leaseTTL      time.Duration
	faultEvents   int
	fsChaos       int64
	fsChaosEvents int
}

func registerFleetFlags() *fleetFlags {
	f := &fleetFlags{}
	flag.IntVar(&f.shards, "shards", 0, "sweep the multi-channel machine, splitting each (scheme, seed) cell into this many channel-slice shards (0 = two-core campaigns)")
	flag.IntVar(&f.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&f.channels, "channels", 4, "with -shards: memory channels in the multi-channel machine")
	flag.IntVar(&f.domains, "domains", 100, "with -shards: tenant security domains")
	flag.StringVar(&f.telemDir, "telem-dir", "", "write per-worker telemetry streams here and a deterministic telem-report.json after the run (watch live with dagtop -dir)")
	flag.StringVar(&f.promOut, "prom-out", "", "write fleet_* and per-shard counters in Prometheus text format to this path after the run")
	flag.BoolVar(&f.join, "join", false, "join an existing fleet directory as one of several cooperating processes (requires -checkpoint-dir; shard ownership is arbitrated by lease files)")
	flag.StringVar(&f.proc, "proc", "", "process name for -join (namespaces telemetry streams and lease owners; default p<pid>)")
	flag.DurationVar(&f.leaseTTL, "lease-ttl", 0, "shard lease TTL — an unrenewed lease is presumed dead and stealable after this long (0 = 10s)")
	flag.IntVar(&f.faultEvents, "fault-events", 0, "with -shards: derive a seeded per-shard fault campaign of this many events (DRAM stalls, shaper rejects, egress stalls, deferred responses) from the sweep fingerprint (0 = clean sweep)")
	flag.Int64Var(&f.fsChaos, "fs-chaos", 0, "seed for injected storage faults (torn writes, EIO, rename stalls, fsync delays) under every manifest/lease/checkpoint/result write (0 = off)")
	flag.IntVar(&f.fsChaosEvents, "fs-chaos-events", 16, "number of storage faults injected per process when -fs-chaos is set")
	return f
}

// clusterSweep builds the -shards sweep over the multi-channel machine;
// ok is false (after printing why) on a usage error.
func clusterSweep(f *fleetFlags, schemeFlag string, seeds []int64, cycles uint64) (sweep fleet.Sweep, ok bool) {
	sweep = fleet.DefaultSweep(f.channels, f.domains, seeds, cycles)
	sweep.FaultEvents = f.faultEvents
	switch schemeFlag {
	case "all":
	case "insecure", "dagguise":
		sweep.Schemes = []string{schemeFlag}
	default:
		fmt.Fprintf(os.Stderr, "dagchaos: -shards simulates only -scheme all, insecure or dagguise (got %q)\n", schemeFlag)
		return sweep, false
	}
	// -shards is the slice count per cell; the sweep wants the slice width.
	if f.shards > f.channels {
		f.shards = f.channels
	}
	sweep.SliceChannels = (f.channels + f.shards - 1) / f.shards
	return sweep, true
}

// printVerdicts prints the per-scheme non-interference verdicts and the
// totals of a multi-channel sweep.
func printVerdicts(sweep fleet.Sweep, rep *fleet.Report) {
	for _, v := range rep.Verdicts {
		status := "ok  "
		if v.Secure == v.Interference {
			status = "FAIL"
		}
		verdict := "no interference"
		if v.Interference {
			verdict = "interference detected"
		}
		fmt.Printf("%s  %-10s shards=%-3d %s\n", status, v.Scheme, v.Shards, verdict)
	}
	fmt.Printf("fleet: %d shards, %d tenants x %d channels, %d cycles each, %d requests completed\n",
		rep.Totals.Shards, sweep.Config.Domains, sweep.Config.Channels, sweep.Cycles, rep.Totals.Completed)
}

// writeTelemReport folds the run's telemetry streams into the
// deterministic telem-report.json next to them (the byte-diffable
// artifact the telem-soak CI job compares) and prints its alerts.
func writeTelemReport(telemDir string) int {
	col, err := telem.Collect(telemDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos: telem:", err)
		return 1
	}
	trep, err := col.Report()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos: telem:", err)
		return 1
	}
	blob, err := trep.Encode()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos: telem:", err)
		return 1
	}
	path := filepath.Join(telemDir, "telem-report.json")
	if err := ckpt.WriteFileAtomic(path, blob); err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos: telem:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "dagchaos: wrote telemetry report (%d series, %d spans, %d alerts) to %s\n",
		len(trep.Series), len(trep.Spans), len(trep.Alerts), path)
	for _, a := range trep.Alerts {
		fmt.Fprintf(os.Stderr, "dagchaos: telem alert: %s %s %s (value %g %s %g)\n",
			a.Severity, a.Rule, a.State, a.Value, a.Op, a.Threshold)
	}
	return 0
}

// writeFleetProm renders the fleet_* registry counters plus the
// per-shard manifest counters in Prometheus text format.
func writeFleetProm(out, manifestDir string, mx *obs.Registry) int {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, mx.Snapshot(), ""); err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos:", err)
		return 1
	}
	m, err := fleet.LoadManifest(filepath.Join(manifestDir, fleet.ManifestName))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos:", err)
		return 1
	}
	if err := fleet.WriteShardPrometheus(&buf, m.Records); err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos:", err)
		return 1
	}
	if err := ckpt.WriteFileAtomic(out, buf.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "dagchaos: wrote fleet metrics to %s\n", out)
	return 0
}
