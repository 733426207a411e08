package fleet

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dagguise/internal/telem"
)

// telemReport collects a telemetry directory and returns the encoded
// deterministic report bytes.
func telemReport(t *testing.T, dir string) []byte {
	t.Helper()
	c, err := telem.Collect(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestFleetTelemWorkerCountInvariant pins the telemetry half of the
// headline invariant: the collector's deterministic report is
// byte-identical whether the campaign ran on one worker or on many.
func TestFleetTelemWorkerCountInvariant(t *testing.T) {
	s := testSweep(2, 8, 6000)
	soloTelem, manyTelem := t.TempDir(), t.TempDir()
	solo := runSweep(t, s, Options{Workers: 1, Dir: t.TempDir(), CheckpointEvery: 2500, TelemDir: soloTelem})
	many := runSweep(t, s, Options{Workers: 4, Dir: t.TempDir(), CheckpointEvery: 2500, TelemDir: manyTelem})
	if !bytes.Equal(solo, many) {
		t.Fatal("fleet report depends on worker count with telemetry on")
	}
	a, b := telemReport(t, soloTelem), telemReport(t, manyTelem)
	if !bytes.Equal(a, b) {
		t.Fatalf("telemetry report depends on worker count:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", a, b)
	}
	// The collector saw real work: spans, leak series and shard states.
	c, err := telem.Collect(manyTelem)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Spans) == 0 {
		t.Fatal("no spans stitched from a completed campaign")
	}
	leak := 0
	for _, name := range c.DB.Names() {
		if strings.HasPrefix(name, "leak/") {
			leak++
		}
	}
	if leak != len(c.Shards) {
		t.Fatalf("%d leak series for %d shards", leak, len(c.Shards))
	}
	_, _, done, _ := c.Counts()
	if done != len(c.Shards) {
		t.Fatalf("%d done of %d shards in ops fold", done, len(c.Shards))
	}
}

// TestFleetTelemIsMeasurementOnly pins Options.TelemDir's contract: the
// fleet report is byte-identical with telemetry on or off.
func TestFleetTelemIsMeasurementOnly(t *testing.T) {
	s := testSweep(2, 6, 4000)
	off := runSweep(t, s, Options{Workers: 3, Dir: t.TempDir(), CheckpointEvery: 1500})
	on := runSweep(t, s, Options{Workers: 3, Dir: t.TempDir(), CheckpointEvery: 1500, TelemDir: t.TempDir()})
	if !bytes.Equal(off, on) {
		t.Fatal("enabling telemetry changed the fleet report bytes")
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

// TestWriteShardPrometheus pins the per-shard exposition: fixed metric
// order, manifest record order, and the full four-state gauge universe.
func TestWriteShardPrometheus(t *testing.T) {
	recs := []Record{
		{Shard: Shard{Name: "s0"}, Status: StatusDone, Attempts: 2, Retries: 1, BackoffNs: 1_500_000_000, Checkpoints: 3, Resumes: 1},
		{Shard: Shard{Name: "s1"}, Status: StatusRunning, Attempts: 1},
	}
	var buf bytes.Buffer
	if err := WriteShardPrometheus(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"# HELP dagfleet_shard_attempts_total",
		"# TYPE dagfleet_shard_attempts_total counter",
		"dagfleet_shard_attempts_total{shard=\"s0\"} 2\n",
		"dagfleet_shard_attempts_total{shard=\"s1\"} 1\n",
		"dagfleet_shard_retries_total{shard=\"s0\"} 1\n",
		"dagfleet_shard_backoff_seconds_total{shard=\"s0\"} 1.5\n",
		"dagfleet_shard_checkpoint_writes_total{shard=\"s0\"} 3\n",
		"dagfleet_shard_resumes_total{shard=\"s0\"} 1\n",
		"# TYPE dagfleet_shard_state gauge",
		"dagfleet_shard_state{shard=\"s0\",state=\"done\"} 1\n",
		"dagfleet_shard_state{shard=\"s0\",state=\"running\"} 0\n",
		"dagfleet_shard_state{shard=\"s1\",state=\"running\"} 1\n",
		"dagfleet_shard_state{shard=\"s1\",state=\"pending\"} 0\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}
	// Deterministic: a second render is byte-identical.
	var again bytes.Buffer
	if err := WriteShardPrometheus(&again, recs); err != nil {
		t.Fatal(err)
	}
	if got != again.String() {
		t.Fatal("exposition is not deterministic")
	}
	// Metric families appear in their fixed order.
	last := -1
	for _, name := range []string{
		"dagfleet_shard_attempts_total", "dagfleet_shard_retries_total",
		"dagfleet_shard_backoff_seconds_total", "dagfleet_shard_checkpoint_writes_total",
		"dagfleet_shard_resumes_total", "dagfleet_shard_state",
	} {
		i := strings.Index(got, "# HELP "+name)
		if i <= last {
			t.Fatalf("family %s out of order", name)
		}
		last = i
	}
}
