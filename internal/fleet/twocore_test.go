package fleet

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagguise/internal/fault"
	"dagguise/internal/mem"
	"dagguise/internal/sim"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
)

// allSchemes is every evaluation scheme, in dagchaos's order.
var allSchemes = []string{"insecure", "fs", "fs-bta", "tp", "camouflage", "dagguise"}

func TestTwoCoreSweepShards(t *testing.T) {
	s := TwoCoreSweep([]string{"insecure", "dagguise"}, []int64{1, 2}, 1000, 12, "lbm")
	shards, err := s.Shards()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"insecure-seed1", "insecure-seed2", "dagguise-seed1", "dagguise-seed2"}
	if len(shards) != len(want) {
		t.Fatalf("got %d shards, want %d", len(shards), len(want))
	}
	for i, sh := range shards {
		if sh.Name != want[i] {
			t.Fatalf("shard %d named %q, want %q", i, sh.Name, want[i])
		}
	}
	s.TwoCore.App = "no-such-app"
	if err := s.Validate(); err == nil {
		t.Fatal("validation accepted an unknown co-runner")
	}
}

// TestTwoCoreFaultWindowsBounded checks the two-core schedule without
// simulating it: at horizons from 60k to 8M cycles no window outlasts
// twoCoreMaxWindow, far inside the watchdog's stall budget, and up to the
// default 120k-cycle horizon the schedule is fault.Campaign's draw as is.
func TestTwoCoreFaultWindowsBounded(t *testing.T) {
	for _, horizon := range []uint64{60_000, 120_000, 400_000, 800_000, 4_000_000, 8_000_000} {
		s := TwoCoreSweep([]string{"dagguise"}, nil, horizon, 12, "lbm")
		for seed := int64(1); seed <= 8; seed++ {
			got := s.ShardFaultSchedule("", Shard{Scheme: "dagguise", Seed: seed, Cycles: horizon})
			if len(got.Events) != 12 {
				t.Fatalf("horizon %d seed %d: %d events, want 12", horizon, seed, len(got.Events))
			}
			for _, e := range got.Events {
				if e.Duration > twoCoreMaxWindow {
					t.Errorf("horizon %d seed %d: %v window of %d cycles exceeds %d", horizon, seed, e.Kind, e.Duration, twoCoreMaxWindow)
				}
			}
			if horizon > 120_000 {
				continue
			}
			want := fault.Campaign(seed, fault.CampaignConfig{
				Horizon: horizon, Domains: []mem.Domain{1}, MaxStorm: twoCoreMaxStorm, Events: 12,
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("horizon %d seed %d: schedule %+v, want fault.Campaign's %+v", horizon, seed, got, want)
			}
		}
	}
}

// TestTwoCoreShardDeadlockSurvivesResume covers the watchdog on the
// two-core machine: a DRAM stall longer than the 50k-cycle budget fails
// the shard with a deadlock *sim.SimError, and a shard resumed from a
// checkpoint cut inside the stall trips at the very same cycle, because
// the watchdog's progress marks are part of the checkpointed state.
func TestTwoCoreShardDeadlockSurvivesResume(t *testing.T) {
	s := TwoCoreSweep([]string{"dagguise"}, []int64{1}, 100_000, 0, "lbm")
	shards, err := s.Shards()
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	build, twins, err := s.machine(sh)
	if err != nil {
		t.Fatal(err)
	}
	opt := ShardOptions{
		SecretA: s.SecretA, SecretB: s.SecretB,
		Faults: fault.Schedule{Events: []fault.Event{{Kind: fault.DRAMStall, Start: 1_000, Duration: 90_000}}},
	}
	deadlock := func(err error) *sim.SimError {
		t.Helper()
		var se *sim.SimError
		if !errors.As(err, &se) || se.Invariant != sim.InvariantDeadlock {
			t.Fatalf("stalled shard returned %v, want a deadlock *sim.SimError", err)
		}
		return se
	}
	ref := deadlock(func() error { _, err := runTwins(context.Background(), sh, opt, build, twins); return err }())

	ctx, cancel := context.WithCancel(context.Background())
	opt.Dir, opt.Every = t.TempDir(), 20_000
	checkpoints := 0
	opt.OnCheckpoint = func() {
		if checkpoints++; checkpoints == 2 {
			cancel() // cut at cycle 40k: inside the stall, before the trip
		}
	}
	if _, err := runTwins(ctx, sh, opt, build, twins); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted shard returned %v, want context.Canceled", err)
	}
	if ref.Cycle <= 40_000 {
		t.Fatalf("watchdog tripped at cycle %d, before the checkpoint it must survive", ref.Cycle)
	}
	resumes := 0
	opt.OnCheckpoint = nil
	opt.OnResume = func() { resumes++ }
	got := deadlock(func() error { _, err := runTwins(context.Background(), sh, opt, build, twins); return err }())
	if resumes != 1 {
		t.Fatalf("resumed %d times, want 1", resumes)
	}
	if got.Cycle != ref.Cycle {
		t.Fatalf("resumed shard tripped at cycle %d, uninterrupted at %d", got.Cycle, ref.Cycle)
	}
}

// TestFleetRetriesPanickingAttach covers the pool's panic isolation: an
// Attach hook that panics takes down only its attempt, the retry runs
// clean, and the committed report is the one a clean run produces.
func TestFleetRetriesPanickingAttach(t *testing.T) {
	s := TwoCoreSweep([]string{"insecure", "dagguise"}, []int64{3}, 20_000, 6, "lbm")
	clean := runSweep(t, s, Options{Workers: 1, Dir: t.TempDir()})
	var calls atomic.Int32
	dir := t.TempDir()
	got := runSweep(t, s, Options{
		Workers: 1, Dir: dir, Retries: 1,
		Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		Attach: func(*sim.System) {
			if calls.Add(1) == 1 {
				panic("observer bug")
			}
		},
	})
	if !bytes.Equal(clean, got) {
		t.Fatalf("report after a retried panic differs from a clean run:\n%s\n%s", got, clean)
	}
	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if r := m.Records[0]; r.Retries != 1 || r.Status != StatusDone {
		t.Fatalf("first shard: %d retries, status %s; want 1 retry and done", r.Retries, r.Status)
	}
	// Two shards, three machines (the DAGguise twins), one extra build
	// for the panicked attempt.
	if n := calls.Load(); n != 4 {
		t.Fatalf("Attach called %d times, want 4", n)
	}
}

// TestTwoCoreWorkerCountInvariant pins the two-core report byte-identical
// on one worker and on four.
func TestTwoCoreWorkerCountInvariant(t *testing.T) {
	s := TwoCoreSweep(allSchemes, []int64{1, 2}, 20_000, 12, "lbm")
	solo := runSweep(t, s, Options{Workers: 1, Dir: t.TempDir(), CheckpointEvery: 5_000})
	many := runSweep(t, s, Options{Workers: 4, Dir: t.TempDir(), CheckpointEvery: 5_000})
	if !bytes.Equal(solo, many) {
		t.Fatalf("report depends on worker count:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", solo, many)
	}
}

// TestTwoCoreReportGate pins the campaign gate: only DAGguise shards ran
// twins, so DAGguise is the only verdict, and a DAGguise shard that
// recorded no response samples fails the gate.
func TestTwoCoreReportGate(t *testing.T) {
	s := TwoCoreSweep(allSchemes, []int64{5}, 10_000, 4, "lbm")
	rep, err := Run(context.Background(), s, Options{Workers: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Verdicts) != 1 || rep.Verdicts[0].Scheme != "dagguise" || rep.Verdicts[0].Shards != 1 {
		t.Fatalf("verdicts %+v, want one DAGguise verdict over one shard", rep.Verdicts)
	}
	if err := rep.Gate(); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Shards {
		if rep.Shards[i].Scheme == "dagguise" {
			rep.Shards[i].Counters.TapSamples = 0
		}
	}
	if err := rep.Gate(); err == nil {
		t.Fatal("gate accepted a DAGguise shard with an empty tap")
	}
}

// TestTwoCoreSweepResumesAfterCancel is the pool-level interrupt: a
// two-core sweep cancelled right after its first mid-shard checkpoint, as
// a SIGTERM cancels dagchaos, and rerun on the same directory writes the
// report of an uninterrupted sweep; the interrupted shard is claimed twice
// and restored from its checkpoint once, and no other shard is claimed twice.
func TestTwoCoreSweepResumesAfterCancel(t *testing.T) {
	s := TwoCoreSweep([]string{"insecure", "dagguise"}, []int64{4}, 200_000, 12, "lbm")
	ref := runSweep(t, s, Options{Workers: 1, Dir: t.TempDir()})

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, s, Options{Workers: 1, Dir: dir, CheckpointEvery: 10_000})
		done <- err
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if frames, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(frames) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared before the deadline")
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}

	got := runSweep(t, s, Options{Workers: 1, Dir: dir, CheckpointEvery: 10_000})
	if !bytes.Equal(ref, got) {
		t.Fatalf("resumed sweep differs from uninterrupted run:\n--- reference ---\n%s\n--- resumed ---\n%s", ref, got)
	}
	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	interrupted := 0
	for _, r := range m.Records {
		if r.Attempts == 2 {
			interrupted++
			if r.Resumes != 1 {
				t.Fatalf("interrupted shard %s resumed %d times, want 1", r.Shard.Name, r.Resumes)
			}
		}
	}
	if interrupted != 1 {
		t.Fatalf("%d shards were claimed twice, want exactly the interrupted one", interrupted)
	}
}

// TestTwoCoreRecordsEachTraceOnce checks the sweep's victim trace cache
// under concurrent workers: every machine of a secret reads the one
// recording of its ops, the one NewTwoCore would make, through a position
// of its own.
func TestTwoCoreRecordsEachTraceOnce(t *testing.T) {
	m := &TwoCore{App: "lbm"}
	got := make([]*trace.Slice, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = m.trace(11 + int64(i%2))
		}(i)
	}
	wg.Wait()
	for i, tr := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if first := got[i%2]; &tr.Ops[0] != &first.Ops[0] || (i >= 2 && tr == first) {
			t.Errorf("machine %d does not read the shared recording through its own position", i)
		}
	}
	for i, secret := range []int64{11, 12} {
		ref, err := victim.DocDistTrace(secret, victim.DefaultDocDist())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[i].Ops, ref.Ops) {
			t.Errorf("secret %d: cached trace differs from a fresh recording", secret)
		}
	}
}
