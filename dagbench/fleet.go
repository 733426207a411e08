package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"dagguise/internal/ckpt"
	"dagguise/internal/fleet"
	"dagguise/internal/obs"
	"dagguise/internal/sim"
)

// The fleet sweep: fleet.DefaultSweep over four channels and 100 tenants,
// insecure and DAGguise, one seed taken from the input set, one channel
// per shard (eight shards, each a twin pair of sim.Cluster runs), with
// three mid-shard checkpoints and one worker.
const (
	fleetChannels = 4
	fleetTenants  = 100
	fleetCycles   = 20_000
	fleetEvery    = fleetCycles / 4
	fleetWorkers  = 1
)

// runFleet makes one iteration of fleet-ni: fleet.Run in a fresh
// directory, then Report.Encode and Gate. A traced iteration then replays
// every shard through fleet.RunShard with timing hooks, which splits the
// time between the cluster engine and checkpoint writes, and times the
// merge of the finished manifest.
func runFleet(e *env, traced bool) (sample, error) {
	s := sample{layers: map[string]float64{}}
	start := time.Now()
	sweep := fleet.DefaultSweep(fleetChannels, fleetTenants, []int64{int64(e.input) + 1}, fleetCycles)
	if err := sweep.Validate(); err != nil {
		return s, err
	}
	// A leftover manifest would resume and skip shards, so every iteration
	// gets a directory that did not exist before.
	dir := filepath.Join(e.scratch, fmt.Sprintf("fleet-%d-%d", e.input, e.iter))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return s, err
	}
	defer os.RemoveAll(dir)
	mx := obs.NewRegistry(1)
	var p phase // one segment per shard, one for Encode and Gate
	p.mark()
	t0 := p.marks[0]
	s.setup = t0.Sub(start)

	rep, err := fleet.Run(context.Background(), sweep, fleet.Options{
		Workers:         fleetWorkers,
		Dir:             dir,
		CheckpointEvery: fleetEvery,
		Mx:              mx,
		Log:             shardDone{&p},
	})
	if err != nil {
		return s, err
	}
	runWall := time.Since(t0)
	blob, err := rep.Encode()
	if err != nil {
		return s, err
	}
	gate := rep.Gate()
	p.end(&s)
	// Both twins of every shard are simulated machines.
	s.cycles = 2 * rep.Totals.Cycles

	e.checks.expect("fleet-ni/gate", gate == nil)
	e.checks.expect("fleet-ni/shards", rep.Totals.Shards == 2*fleetChannels)
	sum := sha256.Sum256(blob)
	s.seeded = map[string]string{"report.sha256": hex.EncodeToString(sum[:])}
	var verdicts []string
	for _, v := range rep.Verdicts {
		verdicts = append(verdicts, fmt.Sprintf("%s secure=%v interference=%v shards=%d",
			v.Scheme, v.Secure, v.Interference, v.Shards))
	}
	s.fixed = map[string]string{"verdicts": strings.Join(verdicts, "; ")}
	if !traced {
		return s, nil
	}

	if err := replayShards(e, s.layers, sweep, rep, dir); err != nil {
		return s, err
	}
	m, err := fleet.LoadManifest(filepath.Join(dir, fleet.ManifestName))
	if err != nil {
		return s, err
	}
	t := time.Now()
	merged, err := fleet.Merge(m)
	merge := time.Since(t)
	if err != nil {
		return s, err
	}
	mblob, err := merged.Encode()
	if err != nil {
		return s, err
	}
	e.checks.expect("fleet-ni/merge", bytes.Equal(mblob, blob))
	s.wall = time.Since(t0)

	l := s.layers
	l["cluster.issued"] = float64(rep.Totals.Issued)
	l["cluster.completed"] = float64(rep.Totals.Completed)
	l["cluster.stalls"] = float64(rep.Totals.Stalls)
	l["cluster.shaper_fakes"] = float64(rep.Totals.ShaperFakes)
	// fleet.Run minus the replayed shard work would be the pool's own
	// cost, but on a shared host that difference is smaller than the
	// run-to-run noise of either term, so both are reported as measured.
	l["fleet.run_s"] = runWall.Seconds()
	l["fleet.merge_s"] = merge.Seconds()
	l["fleet.checkpoints"] = float64(mx.CounterTotal(obs.CtrFleetCheckpoints))
	l["fleet.retries"] = float64(mx.CounterTotal(obs.CtrFleetRetries))
	covered := runWall.Seconds() + l["cluster.run_s"] + l["ckpt.save_s"] + merge.Seconds()
	l["trace.coverage"] = covered / s.wall.Seconds()
	return s, nil
}

// shardDone receives the fleet's progress log and marks a segment boundary
// at every shard completion line.
type shardDone struct{ p *phase }

func (w shardDone) Write(b []byte) (int, error) {
	if bytes.HasSuffix(b, []byte(" done\n")) {
		w.p.mark()
	}
	return len(b), nil
}

// replayShards runs every shard of the sweep again through fleet.RunShard,
// in a directory of its own, and checks each result against the report.
// The hooks split the replay into cluster time (simulating chunks and
// digesting) and checkpoint time (capturing, encoding and durably writing
// both twins).
func replayShards(e *env, l map[string]float64, sweep fleet.Sweep, rep *fleet.Report, dir string) error {
	rdir := filepath.Join(dir, "replay")
	if err := os.Mkdir(rdir, 0o755); err != nil {
		return err
	}
	fp, err := sweep.Fingerprint()
	if err != nil {
		return err
	}
	shards, err := sweep.Shards()
	if err != nil {
		return err
	}
	want := map[string]fleet.ShardResult{}
	for _, r := range rep.Shards {
		want[r.Name] = r
	}
	var cluster, save time.Duration
	var saved int
	for _, sh := range shards {
		mark := time.Now()
		res, err := fleet.RunShard(context.Background(), sweep.Config, sh, fleet.ShardOptions{
			Dir:     rdir,
			Every:   fleetEvery,
			SecretA: sweep.SecretA,
			SecretB: sweep.SecretB,
			Faults:  sweep.ShardFaultSchedule(fp, sh),
			SaveFrame: func(path string, payload []byte) error {
				saved += len(payload)
				return ckpt.SaveFrame(path, payload)
			},
			OnChunk: func(lo, hi uint64, _ sim.ClusterCounters) {
				now := time.Now()
				cluster += now.Sub(mark)
				mark = now
			},
			OnCheckpoint: func() {
				now := time.Now()
				save += now.Sub(mark)
				mark = now
			},
		})
		cluster += time.Since(mark)
		if err != nil {
			return err
		}
		e.checks.expect("fleet-ni/replay/"+sh.Name, reflect.DeepEqual(*res, want[sh.Name]))
	}
	l["cluster.run_s"] = cluster.Seconds()
	l["ckpt.save_s"] = save.Seconds()
	l["ckpt.bytes"] = float64(saved)
	return nil
}
