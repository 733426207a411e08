package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dagguise/internal/obs"
	"dagguise/internal/sim"
)

// runSweep executes a sweep in its own directory and returns the encoded
// report bytes.
func runSweep(t *testing.T, s Sweep, opts Options) []byte {
	t.Helper()
	rep, err := Run(context.Background(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestFleetWorkerCountInvariant pins the first half of the headline
// invariant: the merged report is byte-identical whether the sweep ran on
// one worker or on many, and whether or not measurement-only observers
// watched its machines: one registry and tracer shared by four workers,
// or those plus a cycle profile on the one worker profiling allows.
func TestFleetWorkerCountInvariant(t *testing.T) {
	s := testSweep(2, 8, 6000)
	solo := runSweep(t, s, Options{Workers: 1, Dir: t.TempDir(), CheckpointEvery: 2500})
	many := runSweep(t, s, Options{Workers: 4, Dir: t.TempDir(), CheckpointEvery: 2500})
	if !bytes.Equal(solo, many) {
		t.Fatalf("report depends on worker count:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", solo, many)
	}
	for _, profiled := range []bool{false, true} {
		mx, tr := obs.NewRegistry(s.Config.Domains+1), obs.NewTracer(1<<12)
		var prof *obs.CycleProfile
		workers := 4
		if profiled {
			prof, workers = obs.NewCycleProfile(), 1
		}
		observed := runSweep(t, s, Options{
			Workers: workers, Dir: t.TempDir(), CheckpointEvery: 2500,
			Attach: func(sys *sim.System) {
				sys.Observe(mx, tr)
				sys.Profile(prof)
			},
		})
		if !bytes.Equal(solo, observed) {
			t.Fatalf("report depends on observers (%d workers, profiled %v):\n--- bare ---\n%s\n--- observed ---\n%s",
				workers, profiled, solo, observed)
		}
		if tr.Len() == 0 || mx.CounterTotal(obs.CtrIssuedReads) == 0 {
			t.Fatalf("observers saw nothing: %d trace events, %d reads", tr.Len(), mx.CounterTotal(obs.CtrIssuedReads))
		}
	}
}

// TestFleetDoneShardsLeaveNoFrame pins that a finished sweep leaves no
// checkpoint frame behind: every shard cut mid-shard frames, and each was
// removed once the manifest recorded its shard done.
func TestFleetDoneShardsLeaveNoFrame(t *testing.T) {
	dir := t.TempDir()
	runSweep(t, testSweep(2, 8, 6000), Options{Workers: 2, Dir: dir, CheckpointEvery: 2500})
	if frames, err := filepath.Glob(filepath.Join(dir, "*.ckpt")); err != nil || len(frames) > 0 {
		t.Fatalf("finished sweep left frames %v (%v)", frames, err)
	}
	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Records {
		if r.Status != StatusDone || r.Checkpoints == 0 {
			t.Fatalf("shard %s: %s after %d checkpoint(s); want done after at least one", r.Shard.Name, r.Status, r.Checkpoints)
		}
	}
}

func TestFleetResumeRejectsChangedSweep(t *testing.T) {
	s := testSweep(2, 4, 1000)
	dir := t.TempDir()
	runSweep(t, s, Options{Workers: 2, Dir: dir})
	s.Cycles = 2000
	if _, err := Run(context.Background(), s, Options{Workers: 2, Dir: dir}); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("got %v, want ErrManifestMismatch", err)
	}
}

func TestFleetSecondRunIsNoOp(t *testing.T) {
	s := testSweep(2, 4, 2000)
	dir := t.TempDir()
	first := runSweep(t, s, Options{Workers: 2, Dir: dir})
	again := runSweep(t, s, Options{Workers: 2, Dir: dir})
	if !bytes.Equal(first, again) {
		t.Fatal("re-running a completed sweep changed the report")
	}
}

// killSweep is the fixture shared between TestFleetKillResume and its
// helper process; it must be heavy enough that the parent's SIGKILL lands
// while shards are mid-flight.
func killSweep() Sweep {
	return DefaultSweep(4, 32, []int64{9}, 60000)
}

const helperEnvDir = "DAGGUISE_FLEET_HELPER_DIR"

// TestFleetHelperProcess is not a test: it is the child body re-executed by
// TestFleetKillResume so the parent can SIGKILL a live multi-worker fleet.
func TestFleetHelperProcess(t *testing.T) {
	dir := os.Getenv(helperEnvDir)
	if dir == "" {
		t.Skip("helper process body; driven by TestFleetKillResume")
	}
	s := killSweep()
	s.SliceChannels = 2
	opts := Options{Workers: 3, Dir: dir, CheckpointEvery: 2000}
	if _, err := Run(context.Background(), s, opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestFleetKillResume pins the rest of the headline invariant: a fleet
// SIGKILL'd mid-flight, then resumed from its manifest, merges to the same
// bytes as an uninterrupted single-worker run.
func TestFleetKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill test skipped in -short mode")
	}
	s := killSweep()
	s.SliceChannels = 2
	ref := runSweep(t, s, Options{Workers: 1, Dir: t.TempDir(), CheckpointEvery: 2000})

	killDir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestFleetHelperProcess$")
	cmd.Env = append(os.Environ(), helperEnvDir+"="+killDir)
	var childOut bytes.Buffer
	cmd.Stdout = &childOut
	cmd.Stderr = &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the fleet has cut its first mid-shard checkpoint —
	// that guarantees shards are genuinely in flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("no checkpoint appeared before the deadline; child output:\n%s", childOut.String())
		}
		frames, err := filepath.Glob(filepath.Join(killDir, "*.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // expected: killed

	m, err := LoadManifest(filepath.Join(killDir, ManifestName))
	if err != nil {
		t.Fatalf("killed fleet left no readable manifest: %v", err)
	}
	_, _, done, _ := m.Counts()
	if done == len(m.Records) {
		t.Fatalf("fleet finished before the kill; enlarge killSweep (child output:\n%s)", childOut.String())
	}
	// The shards the kill left running, including any that finished
	// before their manifest save: the manifest is their only record.
	leftRunning := map[string]bool{}
	for _, r := range m.Records {
		if r.Status == StatusRunning {
			leftRunning[r.Shard.Name] = true
		}
	}
	if len(leftRunning) == 0 {
		t.Fatalf("killed manifest left no shard running (child output:\n%s)", childOut.String())
	}
	// Only a done shard's frame is removed, so the shards the kill left
	// running keep theirs: the one that cut the frame the kill waited for,
	// at least.
	framed := map[string]bool{}
	for name := range leftRunning {
		if fileExists(CheckpointName(killDir, name)) {
			framed[name] = true
		}
	}
	if len(framed) == 0 {
		t.Fatalf("no shard the kill left running kept a checkpoint frame (child output:\n%s)", childOut.String())
	}

	got := runSweep(t, s, Options{Workers: 3, Dir: killDir, CheckpointEvery: 2000})
	if !bytes.Equal(ref, got) {
		t.Fatalf("killed+resumed fleet differs from uninterrupted run:\n--- reference ---\n%s\n--- resumed ---\n%s", ref, got)
	}
	// The resume re-queues every shard the killed run left running as
	// soon as it starts, instead of waiting for the dead process. Only a
	// claim bumps Attempts, so exactly those shards were claimed twice:
	// once by the killed run and once by the resume.
	m, err = LoadManifest(filepath.Join(killDir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	requeued := map[string]bool{}
	for _, r := range m.Records {
		if r.Attempts > 1 {
			requeued[r.Shard.Name] = true
		}
	}
	if !reflect.DeepEqual(requeued, leftRunning) {
		t.Fatalf("resume re-queued %v, want the shards the kill left running %v", requeued, leftRunning)
	}
	// A re-queue counts one resume and a restore from a frame another.
	for _, r := range m.Records {
		if framed[r.Shard.Name] && r.Resumes != 2 {
			t.Fatalf("re-queued shard %s counts %d resumes, want 2: the re-queue and the restore from its frame", r.Shard.Name, r.Resumes)
		}
	}
	if frames, err := filepath.Glob(filepath.Join(killDir, "*.ckpt")); err != nil || len(frames) > 0 {
		t.Fatalf("resumed sweep left frames %v (%v)", frames, err)
	}
}

// TestFleetHundredTenantGate is the acceptance run: one hundred tenants
// over four channels, with the audit gate requiring the insecure baseline
// to trip and DAGguise to stay clean.
func TestFleetHundredTenantGate(t *testing.T) {
	if testing.Short() {
		t.Skip("hundred-tenant sweep skipped in -short mode")
	}
	s := DefaultSweep(4, 100, []int64{7}, 12000)
	s.SliceChannels = 2
	rep, err := Run(context.Background(), s, Options{Workers: 4, Dir: t.TempDir(), CheckpointEvery: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Gate(); err != nil {
		t.Fatalf("audit gate: %v", err)
	}
	for _, v := range rep.Verdicts {
		switch v.Scheme {
		case "insecure":
			if !v.Interference {
				t.Fatal("insecure baseline did not leak at 100 tenants")
			}
		case "dagguise":
			if v.Interference {
				t.Fatal("dagguise showed interference at 100 tenants")
			}
		default:
			t.Fatalf("unexpected scheme %q in report", v.Scheme)
		}
	}
	if rep.Totals.Shards != 4 {
		t.Fatalf("got %d shards, want 4", rep.Totals.Shards)
	}
	if rep.Totals.Remote == 0 {
		t.Fatal("channel-sliced shards should route some requests out of slice")
	}
}

// TestFleetLogLinesAtomic pins the logf serialization contract: a
// non-thread-safe writer shared by concurrent workers receives exactly
// one whole line per Write, never fragments. bytes.Buffer has no
// internal locking, so under -race this also proves logf's mutex is the
// only thing standing between workers and a data race.
func TestFleetLogLinesAtomic(t *testing.T) {
	var buf bytes.Buffer
	s := testSweep(2, 8, 1500)
	if _, err := Run(context.Background(), s, Options{Workers: 4, Dir: t.TempDir(), Log: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if out == "" {
		t.Fatal("no log output")
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("log does not end in a newline: %q", out)
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "fleet: ") {
			t.Fatalf("interleaved log fragment: %q", line)
		}
	}
}
