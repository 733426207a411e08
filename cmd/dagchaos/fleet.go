package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dagguise/internal/ckpt"
	"dagguise/internal/fleet"
	"dagguise/internal/obs"
)

// fleetFlags shape the fleet pool every sweep runs on, and with -shards
// select the multi-channel, many-tenant machine instead of the two-core
// campaign machine.
type fleetFlags struct {
	shards      int
	workers     int
	channels    int
	domains     int
	promOut     string
	faultEvents int
}

func registerFleetFlags() *fleetFlags {
	f := &fleetFlags{}
	flag.IntVar(&f.shards, "shards", 0, "sweep the multi-channel machine, splitting each (scheme, seed) cell into this many channel-slice shards (0 = two-core campaigns)")
	flag.IntVar(&f.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&f.channels, "channels", 4, "with -shards: memory channels in the multi-channel machine")
	flag.IntVar(&f.domains, "domains", 100, "with -shards: tenant security domains")
	flag.StringVar(&f.promOut, "prom-out", "", "write fleet_* and per-shard counters in Prometheus text format to this path after the run")
	flag.IntVar(&f.faultEvents, "fault-events", 0, "with -shards: derive a seeded per-shard fault campaign of this many events (DRAM stalls, shaper rejects, egress stalls, deferred responses) from the sweep fingerprint (0 = clean sweep)")
	return f
}

// clusterSweep builds the -shards sweep over the multi-channel machine,
// under fleet.DefaultSweep's insecure and DAGguise schemes.
func clusterSweep(f *fleetFlags, seeds []int64, cycles uint64) fleet.Sweep {
	sweep := fleet.DefaultSweep(f.channels, f.domains, seeds, cycles)
	sweep.FaultEvents = f.faultEvents
	// -shards is the slice count per cell; the sweep wants the slice width.
	if f.shards > f.channels {
		f.shards = f.channels
	}
	sweep.SliceChannels = (f.channels + f.shards - 1) / f.shards
	return sweep
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
