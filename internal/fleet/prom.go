package fleet

import (
	"fmt"
	"io"
)

// shardMetric maps one manifest Record field to a Prometheus counter.
type shardMetric struct {
	name  string
	help  string
	value func(r *Record) float64
}

// shardMetrics is emitted in this fixed order so the exposition is
// deterministic and diffs cleanly between scrapes.
var shardMetrics = []shardMetric{
	{"dagfleet_shard_attempts_total",
		"Shard execution attempts, including the first.",
		func(r *Record) float64 { return float64(r.Attempts) }},
	{"dagfleet_shard_retries_total",
		"Retry decisions after failed shard attempts.",
		func(r *Record) float64 { return float64(r.Retries) }},
	{"dagfleet_shard_backoff_seconds_total",
		"Deterministic backoff delay scheduled for the shard's retries.",
		func(r *Record) float64 { return float64(r.BackoffNs) / 1e9 }},
	{"dagfleet_shard_checkpoint_writes_total",
		"Mid-shard twin checkpoints persisted for the shard.",
		func(r *Record) float64 { return float64(r.Checkpoints) }},
	{"dagfleet_shard_resumes_total",
		"Restores of the shard from a persisted checkpoint or a crashed fleet.",
		func(r *Record) float64 { return float64(r.Resumes) }},
}

// shardStates is the fixed label universe of the state gauge, so a
// scrape always carries all four series per shard (1 on the current
// state).
var shardStates = []Status{StatusPending, StatusRunning, StatusDone, StatusFailed}

// WriteShardPrometheus renders per-shard fleet progress from manifest
// records in Prometheus text exposition format. Records are emitted in
// manifest order, so identical fleet states produce byte-identical
// expositions; the manifest is persisted atomically, so records read off
// disk mid-run are always a consistent snapshot.
func WriteShardPrometheus(w io.Writer, records []Record) error {
	for _, m := range shardMetrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", m.name, m.help, m.name); err != nil {
			return err
		}
		for i := range records {
			r := &records[i]
			if _, err := fmt.Fprintf(w, "%s{shard=%q} %g\n", m.name, r.Shard.Name, m.value(r)); err != nil {
				return err
			}
		}
	}
	const state = "dagfleet_shard_state"
	if _, err := fmt.Fprintf(w, "# HELP %s Shard work-queue state (1 on the current state's series).\n# TYPE %s gauge\n", state, state); err != nil {
		return err
	}
	for i := range records {
		for _, s := range shardStates {
			v := 0
			if records[i].Status == s {
				v = 1
			}
			if _, err := fmt.Fprintf(w, "%s{shard=%q,state=%q} %d\n", state, records[i].Shard.Name, s, v); err != nil {
				return err
			}
		}
	}
	return nil
}
