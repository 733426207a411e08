package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"dagguise/internal/ckpt"
)

// Per-shard artifact naming inside a fleet directory. The result file is
// the durable "done" state: it is committed write-once (see
// commitResult), so the manifest can always be rebuilt from the directory.
const (
	ResultSuffix = ".result"
	FailedSuffix = ".failed"
	// CorruptSuffix is appended to quarantined artifacts: a torn or
	// checksum-failed manifest, checkpoint, result or failure marker is
	// renamed aside (never deleted, so a post-mortem can inspect it) and
	// treated as absent.
	CorruptSuffix = ".corrupt"
)

// ResultName returns the committed-result file for a shard inside dir.
func ResultName(dir, shard string) string {
	return filepath.Join(dir, shard+ResultSuffix)
}

// FailedName returns the terminal-failure marker for a shard inside dir.
func FailedName(dir, shard string) string {
	return filepath.Join(dir, shard+FailedSuffix)
}

// failedMarker is the durable record of a shard that exhausted its
// retries; a resumed fleet adopts the failure instead of re-running the
// shard.
type failedMarker struct {
	Shard    string `json:"shard"`
	Error    string `json:"error"`
	Attempts int    `json:"attempts"`
}

// quarantine renames a corrupt artifact aside and logs it.
func quarantine(log io.Writer, path string, cause error) {
	if err := os.Rename(path, path+CorruptSuffix); err != nil {
		_ = os.Remove(path)
	}
	logf(log, "fleet: quarantined corrupt %s (%v)\n", filepath.Base(path), cause)
}

// loadFrame reads a framed artifact (checkpoint or result). Absent files
// return fs.ErrNotExist untouched; corrupt ones (torn writes, checksum
// failures) are quarantined and reported as absent, so the caller
// regenerates the artifact instead of aborting.
func loadFrame(log io.Writer, path string) ([]byte, error) {
	payload, err := ckpt.LoadFrame(path)
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		return payload, err
	}
	quarantine(log, path, err)
	return nil, fmt.Errorf("fleet: quarantined corrupt %s: %w", path, fs.ErrNotExist)
}

// commitResult publishes a shard result write-once: the framed result is
// written to a temp file and hard-linked to the result path, and a link
// never replaces an existing file, so a committed result cannot be
// clobbered. A link that finds an identical result is an idempotent
// success (shard results are deterministic); a corrupt artifact at the
// path is quarantined and the link retried once; a different valid
// result is an error.
func commitResult(log io.Writer, dir string, res *ShardResult) error {
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	path := ResultName(dir, res.Name)
	for attempt := 0; attempt < 2; attempt++ {
		err := linkFile(dir, path, ckpt.Frame(blob))
		if !errors.Is(err, fs.ErrExist) {
			return err
		}
		payload, rerr := loadFrame(log, path)
		if rerr == nil && bytes.Equal(payload, blob) {
			return nil
		}
		if rerr == nil {
			return fmt.Errorf("fleet: result %s already committed with different bytes", res.Name)
		}
	}
	return fmt.Errorf("fleet: result %s: path stays occupied by corrupt artifacts", res.Name)
}

// linkFile writes data to a temp file and hard-links it to path — the
// write-once primitive: link fails fs.ErrExist rather than replacing.
func linkFile(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Link(tmpName, path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// loadResult reads a committed shard result; fs.ErrNotExist (including
// quarantined corruption) means the shard is not done.
func loadResult(log io.Writer, dir, shard string) (*ShardResult, error) {
	path := ResultName(dir, shard)
	payload, err := loadFrame(log, path)
	if err != nil {
		return nil, err
	}
	var res ShardResult
	if err := json.Unmarshal(payload, &res); err != nil || res.Name != shard {
		quarantine(log, path, fmt.Errorf("fleet: result %s: bad payload", shard))
		return nil, fs.ErrNotExist
	}
	return &res, nil
}

// writeFailed durably marks a shard as terminally failed.
func writeFailed(dir, shard, cause string, attempts int) error {
	blob, err := json.Marshal(failedMarker{Shard: shard, Error: cause, Attempts: attempts})
	if err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(FailedName(dir, shard), blob)
}

// loadFailed reads a shard's failure marker, quarantining one that does
// not parse.
func loadFailed(log io.Writer, dir, shard string) (*failedMarker, error) {
	path := FailedName(dir, shard)
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m failedMarker
	if err := json.Unmarshal(blob, &m); err != nil {
		quarantine(log, path, err)
		return nil, fs.ErrNotExist
	}
	return &m, nil
}

// Reconcile folds the fleet directory's per-shard artifacts into the
// manifest and re-queues interrupted work:
//
//   - a committed result file marks the record done (adopting work a
//     killed run committed before its manifest save),
//   - a failure marker marks it failed,
//   - a record still running belonged to a killed run and returns to
//     pending at once.
//
// It returns the names of the re-queued shards.
func Reconcile(m *Manifest, dir string, log io.Writer) []string {
	var requeued []string
	for i := range m.Records {
		rec := &m.Records[i]
		if rec.Status == StatusDone && rec.Result != nil {
			continue
		}
		if res, err := loadResult(log, dir, rec.Shard.Name); err == nil {
			rec.Status = StatusDone
			rec.Result = res
			rec.Error = ""
			continue
		}
		if fm, err := loadFailed(log, dir, rec.Shard.Name); err == nil {
			rec.Status = StatusFailed
			rec.Result = nil
			rec.Error = fm.Error
			continue
		}
		if rec.Status == StatusRunning {
			rec.Status = StatusPending
			rec.Resumes++
			requeued = append(requeued, rec.Shard.Name)
		}
	}
	return requeued
}
