package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dagguise/internal/ckpt"
	"dagguise/internal/mem"
	"dagguise/internal/shaper"
	"dagguise/internal/sim"
)

// testSweep is the small two-scheme sweep the package tests share.
func testSweep(channels, domains int, cycles uint64) Sweep {
	s := DefaultSweep(channels, domains, []int64{42}, cycles)
	return s
}

func TestSweepShardsOrderedAndNamed(t *testing.T) {
	s := testSweep(4, 8, 1000)
	s.Seeds = []int64{1, 2}
	s.SliceChannels = 2
	shards, err := s.Shards()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"insecure-seed1-ch00-02", "insecure-seed1-ch02-04",
		"insecure-seed2-ch00-02", "insecure-seed2-ch02-04",
		"dagguise-seed1-ch00-02", "dagguise-seed1-ch02-04",
		"dagguise-seed2-ch00-02", "dagguise-seed2-ch02-04",
	}
	if len(shards) != len(want) {
		t.Fatalf("got %d shards, want %d", len(shards), len(want))
	}
	for i, sh := range shards {
		if sh.Name != want[i] {
			t.Fatalf("shard %d named %q, want %q", i, sh.Name, want[i])
		}
	}
	// Uneven slice widths take the remainder on the last slice.
	s.SliceChannels = 3
	shards, err = s.Shards()
	if err != nil {
		t.Fatal(err)
	}
	if shards[1].ChanLo != 3 || shards[1].ChanHi != 4 {
		t.Fatalf("remainder slice is [%d, %d), want [3, 4)", shards[1].ChanLo, shards[1].ChanHi)
	}
}

func TestSweepValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Sweep)
	}{
		{"no schemes", func(s *Sweep) { s.Schemes = nil }},
		{"unknown scheme", func(s *Sweep) { s.Schemes = []string{"quantum"} }},
		{"no seeds", func(s *Sweep) { s.Seeds = nil }},
		{"zero cycles", func(s *Sweep) { s.Cycles = 0 }},
		{"equal secrets", func(s *Sweep) { s.SecretB = s.SecretA }},
		{"broken config", func(s *Sweep) { s.Config.Channels = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSweep(2, 4, 1000)
			tc.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Fatal("validation accepted a broken sweep")
			}
		})
	}
}

func TestSweepFingerprintStable(t *testing.T) {
	a, err := testSweep(2, 8, 1000).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testSweep(2, 8, 1000).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical sweeps fingerprint differently: %s vs %s", a, b)
	}
	c, err := testSweep(2, 8, 2000).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different sweeps share a fingerprint")
	}
}

func TestRunShardDeterministic(t *testing.T) {
	s := testSweep(2, 8, 5000)
	shards, err := s.Shards()
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[len(shards)-1] // a dagguise shard
	opt := ShardOptions{SecretA: s.SecretA, SecretB: s.SecretB}
	r1, err := RunShard(context.Background(), s.Config, sh, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunShard(context.Background(), s.Config, sh, opt)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("identical shard runs differ:\n%s\n%s", b1, b2)
	}
}

// TestRunShardResumesFromCheckpoint interrupts a shard right after its
// first durable checkpoint and requires the resumed execution to land on
// the exact result of an uninterrupted run.
func TestRunShardResumesFromCheckpoint(t *testing.T) {
	s := testSweep(2, 8, 8000)
	shards, err := s.Shards()
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	ref, err := RunShard(context.Background(), s.Config, sh, ShardOptions{SecretA: s.SecretA, SecretB: s.SecretB})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	_, err = RunShard(ctx, s.Config, sh, ShardOptions{
		Dir: dir, Every: 2000,
		SecretA: s.SecretA, SecretB: s.SecretB,
		OnCheckpoint: cancel,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted shard returned %v, want context.Canceled", err)
	}
	resumes := 0
	got, err := RunShard(context.Background(), s.Config, sh, ShardOptions{
		Dir: dir, Every: 2000,
		SecretA: s.SecretA, SecretB: s.SecretB,
		OnResume: func() { resumes++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumes != 1 {
		t.Fatalf("resumed %d times, want 1", resumes)
	}
	rb, _ := json.Marshal(ref)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(rb, gb) {
		t.Fatalf("resumed shard differs from uninterrupted run:\n%s\n%s", rb, gb)
	}
}

// TestRunShardRefusesUnknownCheckpointFields pins strict checkpoint
// decoding: a frame written by a build with a different state shape — here
// a genuine checkpoint with one field this build does not know — must be
// refused as corrupt, not resumed with that part of its state dropped.
func TestRunShardRefusesUnknownCheckpointFields(t *testing.T) {
	s := testSweep(2, 8, 4000)
	shards, err := s.Shards()
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[len(shards)-1] // a dagguise shard
	dir := t.TempDir()
	opt := ShardOptions{Dir: dir, Every: 2000, SecretA: s.SecretA, SecretB: s.SecretB}
	ctx, cancel := context.WithCancel(context.Background())
	opt.OnCheckpoint = cancel
	if _, err := RunShard(ctx, s.Config, sh, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted shard returned %v, want context.Canceled", err)
	}
	path := CheckpointName(dir, sh.Name)
	blob, err := ckpt.LoadFrame(path)
	if err != nil {
		t.Fatal(err)
	}
	var pair map[string]map[string]json.RawMessage
	if err := json.Unmarshal(blob, &pair); err != nil {
		t.Fatal(err)
	}
	pair["a"]["staged_egress"] = json.RawMessage(`[{"id":1}]`)
	if blob, err = json.Marshal(pair); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.SaveFrame(path, blob); err != nil {
		t.Fatal(err)
	}
	opt.OnCheckpoint = nil
	if _, err := RunShard(context.Background(), s.Config, sh, opt); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("resume from a checkpoint with an unknown field returned %v, want ckpt.ErrCorrupt", err)
	}
}

// TestRunShardReturnsSimulationErrors pins that a protocol violation inside
// a twin comes back from RunShard as the *sim.SimError, not as a panic
// left for the pool's recover: a well-formed checkpoint carrying a
// withheld response no shaper issued is redelivered on resume and refused.
func TestRunShardReturnsSimulationErrors(t *testing.T) {
	s := testSweep(2, 8, 4000)
	shards, err := s.Shards()
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[len(shards)-1] // a dagguise shard: domain 1 is shaped
	dir := t.TempDir()
	opt := ShardOptions{Dir: dir, Every: 2000, SecretA: s.SecretA, SecretB: s.SecretB}
	ctx, cancel := context.WithCancel(context.Background())
	opt.OnCheckpoint = cancel
	if _, err := RunShard(ctx, s.Config, sh, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted shard returned %v, want context.Canceled", err)
	}
	path := CheckpointName(dir, sh.Name)
	blob, err := ckpt.LoadFrame(path)
	if err != nil {
		t.Fatal(err)
	}
	var pair pairState
	if err := ckpt.DecodeStrict(blob, &pair); err != nil {
		t.Fatal(err)
	}
	ch := &pair.A.Chans[0]
	ch.Deferred = append(ch.Deferred, sim.DeferredResponse{Until: pair.A.Now, Resp: mem.Response{ID: 1 << 62, Domain: 1}})
	if blob, err = json.Marshal(pair); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.SaveFrame(path, blob); err != nil {
		t.Fatal(err)
	}
	opt.OnCheckpoint = nil
	_, err = RunShard(context.Background(), s.Config, sh, opt)
	var serr *sim.SimError
	if !errors.As(err, &serr) || serr.Invariant != sim.InvariantProtocol {
		t.Fatalf("resume with a bogus withheld response returned %v, want a protocol *sim.SimError", err)
	}
	var uerr *shaper.UnknownResponseError
	if !errors.As(err, &uerr) {
		t.Fatalf("error %v does not wrap *shaper.UnknownResponseError", err)
	}
}

// TestMergeOrderIndependent is the satellite regression test: the merged
// report's bytes must not depend on the order results landed in the
// manifest (i.e. on worker scheduling).
func TestMergeOrderIndependent(t *testing.T) {
	s := testSweep(2, 8, 4000)
	m, err := NewManifest(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Records {
		res, err := RunShard(context.Background(), s.Config, m.Records[i].Shard,
			ShardOptions{SecretA: s.SecretA, SecretB: s.SecretB})
		if err != nil {
			t.Fatal(err)
		}
		m.Records[i].Status = StatusDone
		m.Records[i].Result = res
	}
	ref, err := Merge(m)
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := ref.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Rotate and reverse the records; volatile ops counters change too —
	// neither may reach the report.
	perm := append(append([]Record(nil), m.Records[2:]...), m.Records[:2]...)
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		perm[i].Worker = 7 - i
		perm[i].Retries = i
		perm[i].Checkpoints = 3 * i
	}
	got, err := Merge(&Manifest{Version: ManifestVersion, Fingerprint: m.Fingerprint, Records: perm})
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, gotBytes) {
		t.Fatal("merged report bytes depend on record order or ops counters")
	}
}

func TestMergeRejectsIncomplete(t *testing.T) {
	s := testSweep(2, 4, 1000)
	m, err := NewManifest(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(m); !errors.Is(err, ErrShardsIncomplete) {
		t.Fatalf("got %v, want ErrShardsIncomplete", err)
	}
}

func TestManifestRoundTripAndRequeue(t *testing.T) {
	s := testSweep(2, 4, 1000)
	m, err := NewManifest(s)
	if err != nil {
		t.Fatal(err)
	}
	m.Records[0].Status = StatusRunning
	m.Records[1].Status = StatusDone
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Matches(s); err != nil {
		t.Fatal(err)
	}
	other := s
	other.Cycles++
	if err := loaded.Matches(other); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("got %v, want ErrManifestMismatch", err)
	}
	if n := loaded.requeue(); n != 1 {
		t.Fatalf("requeued %d shards, want exactly the running one", n)
	}
	if loaded.Records[0].Status != StatusPending || loaded.Records[0].Resumes != 1 {
		t.Fatalf("crashed shard not re-queued: %+v", loaded.Records[0])
	}
	if loaded.Records[1].Status != StatusDone {
		t.Fatal("done shard must survive a requeue")
	}
}

func TestPoolFailurePathRetriesThenFails(t *testing.T) {
	s := testSweep(2, 4, 1000)
	// An Attach hook that always panics fails every attempt, exercising
	// retry, backoff accounting and the failed terminal state.
	dir := t.TempDir()
	_, err := Run(context.Background(), s, Options{
		Workers: 2, Dir: dir, Retries: 2, Backoff: 1, MaxBackoff: 2,
		Attach: func(*sim.System) { panic("observer bug") },
	})
	if !errors.Is(err, ErrShardsIncomplete) {
		t.Fatalf("got %v, want ErrShardsIncomplete", err)
	}
	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range m.Records {
		if rec.Status != StatusFailed {
			t.Fatalf("shard %s is %s, want failed", rec.Shard.Name, rec.Status)
		}
		if rec.Retries != 2 || rec.Error == "" {
			t.Fatalf("shard %s retried %d times (want 2), error %q", rec.Shard.Name, rec.Retries, rec.Error)
		}
	}
}

// TestPoolLogsFailedManifestSave pins that a shard's terminal manifest
// save does not fail silently, since the manifest is the shard's only
// record, and that the line reporting it does not end in " done", the
// suffix of a shard completion line.
func TestPoolLogsFailedManifestSave(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	var once sync.Once
	var log bytes.Buffer
	_, err := Run(context.Background(), testSweep(2, 4, 1000), Options{
		Workers: 1, Dir: dir, Log: &log,
		// Once the first shard is claimed, a directory takes the
		// manifest's place, so every later save fails to rename over it.
		Attach: func(*sim.System) {
			once.Do(func() {
				if err := os.Remove(path); err != nil {
					t.Error(err)
				}
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Error(err)
				}
			})
		},
	})
	if err == nil {
		t.Fatal("Run succeeded though no manifest save after the first claim could succeed")
	}
	var failed []string
	for _, line := range strings.SplitAfter(log.String(), "\n") {
		if strings.Contains(line, "manifest save failed") {
			failed = append(failed, line)
		}
	}
	if len(failed) != 1 || strings.HasSuffix(failed[0], " done\n") {
		t.Fatalf("want one manifest-save failure line not ending in \" done\", got %q; log:\n%s", failed, log.String())
	}
}
