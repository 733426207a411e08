package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"dagguise/internal/ckpt"
)

// ManifestVersion is bumped on incompatible manifest layout changes.
const ManifestVersion = 1

// ManifestName is the work-queue file inside a fleet directory.
const ManifestName = "fleet-manifest.json"

// ErrManifestMismatch reports a manifest whose sweep fingerprint (or
// version) does not match the sweep being resumed.
var ErrManifestMismatch = errors.New("fleet: manifest does not match the sweep")

// ErrManifestCorrupt reports a manifest whose records are structurally
// invalid — e.g. a hand-edited or future-version Status string. Loading
// fails loudly instead of silently miscounting the record in Counts and
// never scheduling it.
var ErrManifestCorrupt = errors.New("fleet: manifest is corrupt")

// Status is a shard's work-queue state.
type Status string

const (
	// StatusPending marks a shard no worker has claimed.
	StatusPending Status = "pending"
	// StatusRunning marks a claimed shard. A manifest loaded with running
	// shards belonged to a killed fleet; Run re-queues them on resume.
	StatusRunning Status = "running"
	// StatusDone marks a completed shard with a recorded result.
	StatusDone Status = "done"
	// StatusFailed marks a shard that exhausted its retries.
	StatusFailed Status = "failed"
)

// Record is one shard's manifest entry: the descriptor, its work-queue
// state, and the ops counters (attempts, retries, backoff, checkpoints,
// resumes). The ops counters describe this fleet incarnation's history and
// are deliberately excluded from the merged report — only Result feeds it.
type Record struct {
	Shard       Shard        `json:"shard"`
	Status      Status       `json:"status"`
	Worker      int          `json:"worker"`
	Attempts    int          `json:"attempts"`
	Retries     int          `json:"retries"`
	BackoffNs   int64        `json:"backoff_ns"`
	Checkpoints int          `json:"checkpoints"`
	Resumes     int          `json:"resumes"`
	Error       string       `json:"error,omitempty"`
	Result      *ShardResult `json:"result,omitempty"`
}

// validStatus reports whether s is a Status this build understands.
func validStatus(s Status) bool {
	switch s {
	case StatusPending, StatusRunning, StatusDone, StatusFailed:
		return true
	}
	return false
}

// Manifest is the fsync'd work queue of a fleet run and its claim table:
// a worker claims a shard by marking its record running under the pool
// lock and saving the manifest before it starts work.
type Manifest struct {
	Version     int      `json:"version"`
	Fingerprint string   `json:"fingerprint"`
	Records     []Record `json:"records"`
}

// NewManifest expands the sweep into a fresh all-pending manifest.
func NewManifest(s Sweep) (*Manifest, error) {
	shards, err := s.Shards()
	if err != nil {
		return nil, err
	}
	fp, err := s.Fingerprint()
	if err != nil {
		return nil, err
	}
	m := &Manifest{Version: ManifestVersion, Fingerprint: fp}
	for _, sh := range shards {
		m.Records = append(m.Records, Record{Shard: sh, Status: StatusPending})
	}
	return m, nil
}

// LoadManifest reads a manifest from disk.
func LoadManifest(path string) (*Manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("fleet: manifest %s: %w", path, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrManifestMismatch, m.Version, ManifestVersion)
	}
	for i := range m.Records {
		if !validStatus(m.Records[i].Status) {
			return nil, fmt.Errorf("%w: %s: record %d (%s) has unknown status %q",
				ErrManifestCorrupt, path, i, m.Records[i].Shard.Name, m.Records[i].Status)
		}
	}
	return &m, nil
}

// Matches checks the manifest against a sweep's fingerprint.
func (m *Manifest) Matches(s Sweep) error {
	fp, err := s.Fingerprint()
	if err != nil {
		return err
	}
	if m.Fingerprint != fp {
		return fmt.Errorf("%w: manifest fingerprint %.12s…, sweep %.12s…", ErrManifestMismatch, m.Fingerprint, fp)
	}
	return nil
}

// requeue returns every record a killed fleet left running to pending,
// counting the resume, and returns how many it re-queued.
func (m *Manifest) requeue() int {
	n := 0
	for i := range m.Records {
		if rec := &m.Records[i]; rec.Status == StatusRunning {
			rec.Status = StatusPending
			rec.Resumes++
			n++
		}
	}
	return n
}

// Counts returns the number of records in each state.
func (m *Manifest) Counts() (pending, running, done, failed int) {
	for i := range m.Records {
		switch m.Records[i].Status {
		case StatusPending:
			pending++
		case StatusRunning:
			running++
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		}
	}
	return
}

// Save writes the manifest durably: serialized deterministically, written
// to a temp file, fsync'd, renamed over the target, directory fsync'd —
// the same atomic protocol as the checkpoint layer, so a crash leaves
// either the old queue or the new one, never a torn file.
func (m *Manifest) Save(path string) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(path, append(blob, '\n'))
}
