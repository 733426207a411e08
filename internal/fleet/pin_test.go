package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"dagguise/internal/audit"
	"dagguise/internal/config"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
	"dagguise/internal/sim"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
	"dagguise/internal/workload"
)

// TestPinnedFleetReports pins the clean fleet report bytes across
// versions: the SHA-256 of Report.Encode for the four-channel,
// 100-tenant default sweep over 20k cycles, one seed at a time. These are
// the report hashes of the repository benchmark's fleet-ni input sets 0
// and 1.
func TestPinnedFleetReports(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		sum  string
	}{
		{1, "94f1ccc5bf9d62ce55e261ef009c78fdf722584a535b1b652667b4a29a3059f4"},
		{2, "e370a145abae24e517eb939d160ca1dd8f7f38fa52b6057021f5fbfd015812f6"},
	} {
		sweep := DefaultSweep(4, 100, []int64{tc.seed}, 20_000)
		rep, err := Run(context.Background(), sweep, Options{
			Workers:         2,
			Dir:             t.TempDir(),
			CheckpointEvery: 5_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tc.sum {
			t.Fatalf("seed %d: report hashes to %s, pinned %s", tc.seed, got, tc.sum)
		}
	}
}

// Shape of the pinned two-core fault campaign.
const (
	pinCycles = 60_000
	pinEvents = 12
	pinApp    = "lbm"
)

// pinnedTwoCore holds the SHA-256 of each (scheme, seed) cell's outcome
// (see twoCoreOutcome.hash).
var pinnedTwoCore = map[string]string{
	"insecure-seed1":   "85ed597f5c2e6c24704859666c9ea25575b54ec9bb91fc66ee2ae7f8981d4f98",
	"insecure-seed2":   "1dd3e4b1227851d1232eee049331961988849cb6219d02c79e89cd2f4c225d9e",
	"fs-seed1":         "fa7698da2caf3b5ca9a8642ecdda12a7a717083e106398fc6f53b6c87730af3c",
	"fs-seed2":         "de919f6cbfa50850abfddd681bc4242bb98aba1cbdd79af5e509372ea1d423c0",
	"fs-bta-seed1":     "fc51300332047c6d5b4d576586da00523c203e1c506bafb5c00083f240dac79e",
	"fs-bta-seed2":     "b8bda4f6a9f73005ef749f6938b034735dae98c5464cf90284e626b033ca2419",
	"tp-seed1":         "19a11358ef84ade88ed47cbbe9cde652785b4659cf6bfe14de97c883f38a5589",
	"tp-seed2":         "cc4bfbf7d09860b3f0ca591fd9e1fc111b3cb1794d17ad8b9cbd590505d5ab57",
	"camouflage-seed1": "2c68a277cde91cf76e9c71780eeb46bf9f777ad9294787498928ec9c8e76b8ed",
	"camouflage-seed2": "2f43f85990dcd44af1c38adda93a225a2af3278297ccfb3303eb347b8d55af98",
	"dagguise-seed1":   "70fb53b6955a33f687fad4a10c8bc2d9abd42f2f225f7cf7cf97a24f1a632622",
	"dagguise-seed2":   "7b176e1b6160429ed084d76a425d9c7ee1129bead084333581e618643ff5d45d",
}

// twoCoreOutcome is the explicit list of values a two-core campaign cell
// is pinned on. The counters JSON is deliberately not hashed, so the
// result type may gain fields without moving the pin.
type twoCoreOutcome struct {
	err          error
	counters     sim.ClusterCounters
	instructions []uint64
	digestA      string
	digestB      string // DAGguise only: the secret-12 twin
}

func (o twoCoreOutcome) hash() string {
	var s string
	var se *sim.SimError
	switch {
	case errors.As(o.err, &se):
		s = fmt.Sprintf("error %s cycle=%d domain=%d detail=%s\n", se.Invariant, se.Cycle, se.Domain, se.Detail)
	case o.err != nil:
		s = "error " + o.err.Error() + "\n"
	default:
		c := o.counters
		s = fmt.Sprintf("cycles=%d\ninstructions=%v\nchannel_issued=%v\nshaper_forwarded=%d\nshaper_fakes=%d\n"+
			"tap_samples=%d\nfault_deferred=%d\nfault_stall_hits=%d\ndigest_a=%s\ndigest_b=%s\n",
			c.Cycles, o.instructions, c.ChannelIssued, c.ShaperForwarded, c.ShaperFakes,
			c.TapSamples, c.FaultDeferred, c.FaultStallHits, o.digestA, o.digestB)
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// referenceTwoCore builds the campaign machine the way dagchaos wires it:
// a protected DocDist victim carrying the secret next to an unprotected
// co-runner, the cell's fault schedule attached, and an audit tap on the
// victim's domain. The tap is write-only, so recording it for every
// scheme changes nothing the machine does.
func referenceTwoCore(t *testing.T, scheme config.Scheme, secret int64, sched fault.Schedule) *sim.System {
	t.Helper()
	tr, err := victim.DocDistTrace(secret, victim.DefaultDocDist())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.ByName(pinApp)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(config.Default(2, scheme), []sim.CoreSpec{
		{Name: "docdist", Source: &trace.Loop{Inner: tr}, Protected: true},
		{Name: pinApp, Source: workload.MustSource(prog, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachFaults(sched); err != nil {
		t.Fatal(err)
	}
	sys.AuditResponses(1, audit.NewTap())
	return sys
}

// referenceCell runs one (scheme, seed) cell uninterrupted with the
// default watchdog armed: the secret-11 run, plus the secret-12 twin
// under DAGguise. A failing run's error is the outcome.
func referenceCell(t *testing.T, scheme config.Scheme, seed int64) twoCoreOutcome {
	sched := fault.Campaign(seed, fault.CampaignConfig{
		Horizon:  pinCycles,
		Domains:  []mem.Domain{1},
		MaxStorm: 4_000,
		Events:   pinEvents,
	})
	a := referenceTwoCore(t, scheme, 11, sched)
	a.SetWatchdog(sim.DefaultWatchdog())
	if err := a.Run(context.Background(), pinCycles); err != nil {
		return twoCoreOutcome{err: err}
	}
	o := twoCoreOutcome{counters: a.Counters(), digestA: a.AuditDigest()}
	for i := 0; i < 2; i++ {
		o.instructions = append(o.instructions, a.Core(i).Stats().Instructions)
	}
	if scheme == config.DAGguise {
		b := referenceTwoCore(t, scheme, 12, sched)
		b.SetWatchdog(sim.DefaultWatchdog())
		if err := b.Run(context.Background(), pinCycles); err != nil {
			return twoCoreOutcome{err: err}
		}
		o.digestB = b.AuditDigest()
	}
	return o
}

// TestPinnedTwoCoreCampaign pins dagchaos's two-core fault campaign:
// every scheme, seeds 1 and 2, 12 fault events over 60k cycles.
func TestPinnedTwoCoreCampaign(t *testing.T) {
	for _, name := range []string{"insecure", "fs", "fs-bta", "tp", "camouflage", "dagguise"} {
		scheme, err := config.ParseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			cell := fmt.Sprintf("%s-seed%d", name, seed)
			if got, want := referenceCell(t, scheme, seed).hash(), pinnedTwoCore[cell]; got != want {
				t.Errorf("%s: outcome hashes to %s, pinned %s", cell, got, want)
			}
		}
	}
}

// fleetOutcome reads the pinned values off a fleet shard result.
func fleetOutcome(r *ShardResult) twoCoreOutcome {
	return twoCoreOutcome{counters: r.Counters, instructions: r.Counters.Instructions, digestA: r.DigestA, digestB: r.DigestB}
}

// TestPinnedTwoCoreCampaignOnFleet is the differential test of the
// campaign's move onto the fleet: the pinned cells, run as a fleet sweep
// through the pool with a checkpoint every 20k cycles, and shard by shard
// interrupted at the first checkpoint and resumed from it, must reproduce
// the outcomes of the reference runs above.
func TestPinnedTwoCoreCampaignOnFleet(t *testing.T) {
	sweep := TwoCoreSweep([]string{"insecure", "fs", "fs-bta", "tp", "camouflage", "dagguise"},
		[]int64{1, 2}, pinCycles, pinEvents, pinApp)
	rep, err := Run(context.Background(), sweep, Options{Workers: 2, Dir: t.TempDir(), CheckpointEvery: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != len(pinnedTwoCore) {
		t.Fatalf("fleet ran %d shards, the pin has %d cells", len(rep.Shards), len(pinnedTwoCore))
	}
	for i := range rep.Shards {
		r := &rep.Shards[i]
		if got, want := fleetOutcome(r).hash(), pinnedTwoCore[r.Name]; got != want {
			t.Errorf("pool %s: outcome hashes to %s, pinned %s", r.Name, got, want)
		}
	}

	fp, err := sweep.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	shards, err := sweep.Shards()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		build, twins, err := sweep.machine(sh)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		opt := ShardOptions{
			Dir: t.TempDir(), Every: 20_000,
			SecretA: sweep.SecretA, SecretB: sweep.SecretB,
			Faults:       sweep.ShardFaultSchedule(fp, sh),
			OnCheckpoint: cancel,
		}
		if _, err := runTwins(ctx, sh, opt, build, twins); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted shard returned %v, want context.Canceled", sh.Name, err)
		}
		resumes := 0
		opt.OnCheckpoint = nil
		opt.OnResume = func() { resumes++ }
		r, err := runTwins(context.Background(), sh, opt, build, twins)
		if err != nil {
			t.Fatal(err)
		}
		if resumes != 1 {
			t.Fatalf("%s: resumed %d times, want 1", sh.Name, resumes)
		}
		if got, want := fleetOutcome(r).hash(), pinnedTwoCore[sh.Name]; got != want {
			t.Errorf("resumed %s: outcome hashes to %s, pinned %s", sh.Name, got, want)
		}
	}
}

// TestPinnedFleetSchemeReports pins one clean report for each scheme the
// multi-channel machine builds beyond the default sweep's two: the
// default four-channel, 100-tenant machine, seed 1, 20k cycles, swept
// under that scheme alone. The hashes were recorded when the machine
// first built these schemes through sim.New's policy, slot-group and
// shaper builders.
func TestPinnedFleetSchemeReports(t *testing.T) {
	for _, tc := range []struct {
		scheme string
		sum    string
	}{
		{"fs", "17353a33744a818be1fa6b074643678d3ed556aaf784df9ddce9e77b9b95812b"},
		{"fs-bta", "1f7c26fcd751f426fc65481cda8a46bb1d3e1799037f1039e4e461ce792290d1"},
		{"tp", "8b562980ff737c7dc193d9ad740147c25566a1d9de50c2b1e44198f9218cea27"},
		{"camouflage", "dfb9925619e8ca4e32f221d4e822eb1e8012c3a1da6320bf13b9f7965a9692ff"},
	} {
		sweep := DefaultSweep(4, 100, []int64{1}, 20_000)
		sweep.Schemes = []string{tc.scheme}
		rep, err := Run(context.Background(), sweep, Options{
			Workers:         2,
			Dir:             t.TempDir(),
			CheckpointEvery: 5_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tc.sum {
			t.Errorf("%s: report hashes to %s, pinned %s", tc.scheme, got, tc.sum)
		}
	}
}
