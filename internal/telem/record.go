// Package telem is the fleet telemetry plane: durable per-worker NDJSON
// telemetry streams, a collector that folds every stream into one
// campaign-wide time-series store and alert engine, cross-worker span
// stitching into a single Perfetto trace, and a deterministic report.
//
// Two planes share the stream format but never mix:
//
//   - The deterministic plane (metric points on the shard's logical-cycle
//     axis, span begin/end records, leak indicators) is a pure function
//     of the sweep: the collector's Report is byte-identical whether the
//     campaign ran on one worker, on K workers, or on K workers that were
//     SIGKILL'd mid-stream and resumed.
//
//   - The ops plane (shard lifecycle events, heartbeats, fleet metric
//     deltas — everything stamped with wall-clock time) drives the live
//     console (`dagtop`), the straggler/worker-stall/requeue-rate rules
//     and the ETA, and is deliberately excluded from the report.
//
// Streams are crash-safe: every line is framed with ckpt.FrameLine
// (magic + truncated SHA-256), writers repair a torn tail before
// appending, and readers tolerate a truncated final line — the exact
// discipline binary checkpoints get from ckpt.Unframe.
package telem

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Version is the telemetry stream format version, carried by every
// stream's hello record.
const Version = 1

// Kind classifies one telemetry record. Short tags keep the NDJSON
// lines compact; the constants are the API.
type Kind string

const (
	// KindHello opens every stream: format version, worker name and the
	// sweep fingerprint the stream belongs to.
	KindHello Kind = "hello"
	// KindCampaign describes the campaign shape (total shards, worker
	// pool size, cycles per shard); emitted by the fleet driver.
	KindCampaign Kind = "campaign"
	// KindShard is a shard lifecycle event (ops plane): claim, retry,
	// requeue, done, failed — with the failure cause where there is one.
	KindShard Kind = "shard"
	// KindHeartbeat is a liveness beacon (ops plane): the worker was
	// alive at Wall, working shard Shard at logical cycle T.
	KindHeartbeat Kind = "hb"
	// KindPoint is a deterministic metric sample: series Series holds
	// value V at logical cycle T. Never wall-stamped.
	KindPoint Kind = "pt"
	// KindSpanBegin / KindSpanEnd bracket a deterministic span on the
	// shard's logical-cycle axis.
	KindSpanBegin Kind = "sb"
	KindSpanEnd   Kind = "se"
	// KindMetrics is an ops-plane fleet counter delta (obs.Snapshot
	// condensed to nonzero named totals).
	KindMetrics Kind = "mx"
)

// Event names for KindShard records.
const (
	EventClaim   = "claim"
	EventRetry   = "retry"
	EventRequeue = "requeue"
	EventDone    = "done"
	EventFailed  = "failed"
)

// Record is one telemetry stream line. Fields are pooled across kinds
// (omitempty keeps lines tight); Wall is only ever set on ops-plane
// records, so deterministic records are byte-stable on replay.
type Record struct {
	Kind Kind `json:"k"`
	// Hello fields.
	Version     int    `json:"ver,omitempty"`
	Worker      string `json:"worker,omitempty"`
	Fingerprint string `json:"fp,omitempty"`
	// Campaign fields.
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Shard lifecycle / heartbeat / span / point fields.
	Shard  string  `json:"shard,omitempty"`
	Event  string  `json:"event,omitempty"`
	Cause  string  `json:"cause,omitempty"`
	Series string  `json:"series,omitempty"`
	Name   string  `json:"name,omitempty"`
	T      uint64  `json:"t,omitempty"`
	V      float64 `json:"v,omitempty"`
	Start  uint64  `json:"start,omitempty"`
	End    uint64  `json:"end,omitempty"`
	// Wall is unix milliseconds; ops-plane records only.
	Wall int64 `json:"wall,omitempty"`
	// Counters is the condensed metric delta of a KindMetrics record.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// Validate rejects records that would corrupt a collection.
func (r *Record) Validate() error {
	switch r.Kind {
	case KindHello:
		if r.Version != Version {
			return fmt.Errorf("telem: stream is v%d, this build reads v%d", r.Version, Version)
		}
		if r.Worker == "" {
			return fmt.Errorf("telem: hello without a worker name")
		}
	case KindCampaign, KindShard, KindHeartbeat, KindPoint, KindSpanBegin, KindSpanEnd, KindMetrics:
	default:
		return fmt.Errorf("telem: unknown record kind %q", r.Kind)
	}
	return nil
}

// encode renders the record as its canonical JSON payload (no newline).
func (r *Record) encode() ([]byte, error) {
	return json.Marshal(r)
}

// decode parses one record payload.
func decode(payload []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, fmt.Errorf("telem: bad record: %w", err)
	}
	return r, nil
}

// StreamPrefix and StreamSuffix bracket the per-worker stream file
// names: StreamPrefix + worker + StreamSuffix.
const (
	StreamPrefix = "telem-worker-"
	StreamSuffix = ".ndjson"
)

// StreamName returns the stream file name for a worker.
func StreamName(worker string) string {
	return StreamPrefix + sanitizeWorker(worker) + StreamSuffix
}

// sanitizeWorker keeps worker names filesystem-safe.
func sanitizeWorker(w string) string {
	if w == "" {
		return "anon"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, w)
}
