package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// TestRunQuarantinesCorruptManifest pins the robustness path on top of
// the strict loader: a torn manifest is quarantined and the sweep starts
// over under a fresh one instead of aborting the campaign. The manifest
// was the only record of the first run, so every shard runs once more,
// from cycle 0: the first run's checkpoint frames are discarded, not
// resumed.
func TestRunQuarantinesCorruptManifest(t *testing.T) {
	s := testSweep(2, 4, 1500)
	dir := t.TempDir()
	opts := Options{Workers: 2, Dir: dir, CheckpointEvery: 500}
	first := runSweep(t, s, opts)
	path := filepath.Join(dir, ManifestName)
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	again := runSweep(t, s, opts)
	if !bytes.Equal(first, again) {
		t.Fatal("report rebuilt under a fresh manifest differs from the original")
	}
	if _, err := os.Stat(path + CorruptSuffix); err != nil {
		t.Fatalf("torn manifest was not quarantined: %v", err)
	}
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Records {
		if r.Status != StatusDone || r.Attempts != 1 || r.Resumes != 0 {
			t.Fatalf("shard %s after the rebuild: %s, %d attempt(s), %d resume(s); want done, 1, 0",
				r.Shard.Name, r.Status, r.Attempts, r.Resumes)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if name != ManifestName && filepath.Ext(name) != ".ckpt" && !strings.HasSuffix(name, CorruptSuffix) {
			t.Fatalf("fleet directory holds %s besides the manifest, checkpoints and quarantine", name)
		}
	}
}

// TestRunRebuiltManifestIgnoresStaleProgress is the regression test for
// progress left under the same shard names by another sweep: shard names
// carry no cycle count, so a 3,000-cycle sweep rebuilt over a torn
// manifest, in the directory of a 1,500-cycle run, must neither take that
// run's results nor resume from its checkpoint frames. The fault campaign
// derives from the sweep fingerprint, so a frame cut under the shorter
// sweep's faults changes the report.
func TestRunRebuiltManifestIgnoresStaleProgress(t *testing.T) {
	short := testSweep(2, 4, 1500)
	short.FaultEvents = 4
	long := short
	long.Cycles = 3000
	clean := runSweep(t, long, Options{Workers: 2, Dir: t.TempDir(), CheckpointEvery: 500})

	opts := Options{Workers: 2, Dir: t.TempDir(), CheckpointEvery: 500}
	runSweep(t, short, opts)
	if err := os.WriteFile(filepath.Join(opts.Dir, ManifestName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runSweep(t, long, opts); !bytes.Equal(clean, got) {
		t.Fatalf("sweep rebuilt over a shorter run differs from a clean run:\n--- clean ---\n%s\n--- rebuilt ---\n%s", clean, got)
	}
}

// TestRunQuarantinesCorruptArtifacts covers the quarantine of a shard's
// checkpoint: after a cancelled run, a truncated checkpoint of the
// interrupted shard is renamed to *.corrupt on the rerun, the shard runs
// from scratch, and the report matches an uninterrupted run.
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
	var ckptPath string
	for _, r := range m.Records {
		if p := CheckpointName(dir, r.Shard.Name); r.Status == StatusPending && fileExists(p) {
			ckptPath = p
			break
		}
	}
	if ckptPath == "" {
		t.Fatalf("cancel landed outside a shard; enlarge the sweep (manifest %+v)", m.Records)
	}
	frame, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptPath, frame[:len(frame)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got := runSweep(t, s, Options{Workers: 1, Dir: dir, CheckpointEvery: 500})
	if !bytes.Equal(ref, got) {
		t.Fatalf("rerun over corrupt artifacts differs from uninterrupted run:\n--- reference ---\n%s\n--- rerun ---\n%s", ref, got)
	}
	if !fileExists(ckptPath + CorruptSuffix) {
		t.Fatalf("%s was not quarantined", filepath.Base(ckptPath))
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
