package fleet

import (
	"bytes"
	"strings"
	"testing"
)

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
