package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dagguise/internal/ckpt"
)

// TestLoadManifestRejectsUnknownStatus is the satellite regression test:
// a hand-edited (or future-version) status string must fail loudly with
// ErrManifestCorrupt instead of silently never scheduling the record.
func TestLoadManifestRejectsUnknownStatus(t *testing.T) {
	s := testSweep(2, 4, 1000)
	m, err := NewManifest(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), ManifestName)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Replace(blob, []byte(`"pending"`), []byte(`"paused"`), 1)
	if bytes.Equal(mut, blob) {
		t.Fatal("fixture: no pending status found to mangle")
	}
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("got %v, want ErrManifestCorrupt", err)
	}
}

// TestReconcileAdoptsArtifacts pins the resume path: Reconcile adopts
// the terminal artifacts in the directory (a committed result, a failure
// marker) and re-queues a record a killed run left running.
func TestReconcileAdoptsArtifacts(t *testing.T) {
	s := testSweep(2, 4, 1000)
	s.Seeds = []int64{1, 2} // four shards
	m, err := NewManifest(s)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Record 1: running when its fleet was killed.
	m.Records[1].Status = StatusRunning
	// Record 2: its result was committed before the manifest save.
	res := &ShardResult{Name: m.Records[2].Shard.Name, Scheme: m.Records[2].Shard.Scheme, Cycles: 1000}
	if err := commitResult(nil, dir, res); err != nil {
		t.Fatal(err)
	}
	// Record 3: durably marked failed.
	if err := writeFailed(dir, m.Records[3].Shard.Name, "boom", 3); err != nil {
		t.Fatal(err)
	}

	requeued := Reconcile(m, dir, nil)
	if len(requeued) != 1 || requeued[0] != m.Records[1].Shard.Name {
		t.Fatalf("requeued %v, want exactly the running shard", requeued)
	}
	if m.Records[0].Status != StatusPending || m.Records[0].Resumes != 0 {
		t.Fatalf("pending shard disturbed: %+v", m.Records[0])
	}
	if m.Records[1].Status != StatusPending || m.Records[1].Resumes != 1 {
		t.Fatalf("killed shard not re-queued: %+v", m.Records[1])
	}
	if m.Records[2].Status != StatusDone || m.Records[2].Result == nil {
		t.Fatalf("committed result not adopted: %+v", m.Records[2])
	}
	if m.Records[3].Status != StatusFailed || m.Records[3].Error != "boom" {
		t.Fatalf("failure marker not adopted: %+v", m.Records[3])
	}
}

func TestCommitResultIsWriteOnce(t *testing.T) {
	dir := t.TempDir()
	res := &ShardResult{Name: "s0", Scheme: "dagguise", Cycles: 100, DigestA: "aa", DigestB: "aa"}
	if err := commitResult(nil, dir, res); err != nil {
		t.Fatal(err)
	}
	// Identical re-commit (a replayed deterministic shard) is idempotent.
	if err := commitResult(nil, dir, res); err != nil {
		t.Fatalf("idempotent re-commit: %v", err)
	}
	committed, err := os.ReadFile(ResultName(dir, "s0"))
	if err != nil {
		t.Fatal(err)
	}
	// A different result must be refused, leaving the committed bytes
	// intact.
	evil := *res
	evil.DigestB = "bb"
	evil.Interference = true
	if err := commitResult(nil, dir, &evil); err == nil {
		t.Fatal("conflicting commit succeeded")
	}
	after, err := os.ReadFile(ResultName(dir, "s0"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, committed) {
		t.Fatal("conflicting commit clobbered the committed result")
	}
}

// TestRunQuarantinesCorruptManifest pins the robustness path on top of
// the strict loader: a torn manifest is quarantined and the fleet
// rebuilds the queue from the directory's authoritative per-shard state
// instead of aborting the campaign.
func TestRunQuarantinesCorruptManifest(t *testing.T) {
	s := testSweep(2, 4, 1500)
	dir := t.TempDir()
	first := runSweep(t, s, Options{Workers: 2, Dir: dir})
	path := filepath.Join(dir, ManifestName)
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	again := runSweep(t, s, Options{Workers: 2, Dir: dir})
	if !bytes.Equal(first, again) {
		t.Fatal("rebuilt-from-artifacts report differs from the original")
	}
	if _, err := os.Stat(path + CorruptSuffix); err != nil {
		t.Fatalf("torn manifest was not quarantined: %v", err)
	}
	// The adopted results meant no shard was re-simulated: the rebuilt
	// manifest must show every shard done.
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, done, _ := m.Counts()
	if done != len(m.Records) {
		t.Fatalf("%d/%d shards done after rebuild", done, len(m.Records))
	}
}

// TestRunQuarantinesCorruptArtifacts covers the quarantine of shard
// artifacts: after a cancelled run, a truncated checkpoint of the
// interrupted shard and a torn result planted for a shard that is not
// done are both renamed to *.corrupt on the rerun, the shards run from
// scratch, and the report matches an uninterrupted run.
func TestRunQuarantinesCorruptArtifacts(t *testing.T) {
	s := testSweep(2, 8, 20_000)
	ref := runSweep(t, s, Options{Workers: 1, Dir: t.TempDir()})

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, s, Options{Workers: 1, Dir: dir, CheckpointEvery: 500})
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

	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var ckptPath, resultPath string
	for _, r := range m.Records {
		if r.Status != StatusPending {
			continue
		}
		if p := CheckpointName(dir, r.Shard.Name); ckptPath == "" && fileExists(p) {
			ckptPath = p
		} else if resultPath == "" {
			resultPath = ResultName(dir, r.Shard.Name)
		}
	}
	if ckptPath == "" || resultPath == "" {
		t.Fatalf("cancel landed outside a shard; enlarge the sweep (manifest %+v)", m.Records)
	}
	frame, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptPath, frame[:len(frame)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	torn := ckpt.Frame([]byte(`{"name":"torn"}`))
	if err := os.WriteFile(resultPath, torn[:len(torn)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	got := runSweep(t, s, Options{Workers: 1, Dir: dir, CheckpointEvery: 500})
	if !bytes.Equal(ref, got) {
		t.Fatalf("rerun over corrupt artifacts differs from uninterrupted run:\n--- reference ---\n%s\n--- rerun ---\n%s", ref, got)
	}
	for _, p := range []string{ckptPath, resultPath} {
		if !fileExists(p + CorruptSuffix) {
			t.Fatalf("%s was not quarantined", filepath.Base(p))
		}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
