package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"dagguise/internal/ckpt"
	"dagguise/internal/fault"
	"dagguise/internal/rng"
)

// Per-shard artifact naming inside a fleet directory. The result file is
// the authoritative "done" state in multi-process mode: it is committed
// write-once (see commitResult), so the manifest can always be rebuilt
// from the directory.
const (
	ResultSuffix = ".result"
	FailedSuffix = ".failed"
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
// retries; peers adopt the failure instead of re-running the shard.
type failedMarker struct {
	Shard    string `json:"shard"`
	Error    string `json:"error"`
	Attempts int    `json:"attempts"`
}

// commitResult publishes a shard result with the fencing discipline that
// makes zombie overwrites structurally impossible:
//
//  1. The holder's lease is re-checked; a stolen lease fails ErrFenced
//     before any byte is written.
//  2. The framed result is written to a temp file and then os.Link'd to
//     the result path. Link never replaces an existing file, so a
//     committed result can never be clobbered — by anyone.
//  3. A link that loses to an existing identical result is an idempotent
//     success (shard results are deterministic); an existing different
//     result is refused with ErrFenced.
//
// Injected storage faults retry with deterministic backoff; a torn
// deposit at the result path is quarantined by the read-back and the
// link retried.
func commitResult(io *fsio, lm *LeaseManager, h *Held, dir string, res *ShardResult) error {
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	framed := ckpt.Frame(blob)
	path := ResultName(dir, res.Name)
	for attempt := 0; ; attempt++ {
		if attempt > io.retries+8 {
			return fmt.Errorf("fleet: result %s: commit gave up after %d attempts", res.Name, attempt)
		}
		if lm != nil && h != nil {
			if err := lm.Check(h); err != nil {
				return err
			}
		}
		err := io.fault(path, framed)
		if err == nil {
			err = linkFile(dir, path, framed)
		}
		switch {
		case err == nil:
			return nil
		case errors.Is(err, fs.ErrExist):
			// Something occupies the result path. An identical committed
			// result is an idempotent success; a corrupt artifact is
			// quarantined (loadFrame) and the link retried; a different
			// valid result means a newer owner got here first.
			payload, rerr := io.loadFrame(path)
			switch {
			case rerr == nil && bytes.Equal(payload, blob):
				return nil
			case rerr == nil:
				return fmt.Errorf("%w: result %s already committed with different bytes", ErrFenced, res.Name)
			default:
				continue
			}
		case errors.Is(err, fault.ErrInjectedIO):
			time.Sleep(rng.BackoffDelay(io.backoff, io.maxWait, io.seed, attempt))
		default:
			return err
		}
	}
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
func loadResult(io *fsio, dir, shard string) (*ShardResult, error) {
	payload, err := io.loadFrame(ResultName(dir, shard))
	if err != nil {
		return nil, err
	}
	var res ShardResult
	if err := json.Unmarshal(payload, &res); err != nil || res.Name != shard {
		io.quarantine(ResultName(dir, shard), fmt.Errorf("fleet: result %s: bad payload", shard))
		return nil, fs.ErrNotExist
	}
	return &res, nil
}

// writeFailed durably marks a shard as terminally failed.
func writeFailed(io *fsio, dir, shard, cause string, attempts int) error {
	blob, err := json.Marshal(failedMarker{Shard: shard, Error: cause, Attempts: attempts})
	if err != nil {
		return err
	}
	return io.writeAtomic(FailedName(dir, shard), blob)
}

// loadFailed reads a shard's failure marker.
func loadFailed(io *fsio, dir, shard string) (*failedMarker, error) {
	blob, err := io.readFile(FailedName(dir, shard), func(b []byte) error {
		var probe failedMarker
		return json.Unmarshal(b, &probe)
	})
	if err != nil {
		return nil, err
	}
	var m failedMarker
	_ = json.Unmarshal(blob, &m)
	return &m, nil
}

// Reconcile folds the fleet directory's authoritative per-shard state
// into the manifest — the lease-aware replacement for Manifest.Requeue:
//
//   - a committed result file marks the record done (adopting a peer's
//     or a previous incarnation's work),
//   - a failure marker marks it failed,
//   - a live lease keeps it running (a peer owns it — joining a live
//     fleet must not double-run claimed shards),
//   - otherwise a running record's lease has lapsed (or never existed —
//     the crashed-fleet degenerate case, where Reconcile behaves exactly
//     like the old Requeue) and the shard returns to pending.
//
// It returns the names of the re-queued shards.
func Reconcile(m *Manifest, dir string, lm *LeaseManager, io *fsio) []string {
	if io == nil {
		io = newFSIO(nil, 0, 0)
	}
	var requeued []string
	for i := range m.Records {
		rec := &m.Records[i]
		if rec.Status == StatusDone && rec.Result != nil {
			continue
		}
		if res, err := loadResult(io, dir, rec.Shard.Name); err == nil {
			rec.Status = StatusDone
			rec.Result = res
			rec.Error = ""
			continue
		}
		if fm, err := loadFailed(io, dir, rec.Shard.Name); err == nil {
			rec.Status = StatusFailed
			rec.Result = nil
			rec.Error = fm.Error
			continue
		}
		if l, live, ok := lm.Peek(rec.Shard.Name); ok && live {
			rec.Status = StatusRunning
			rec.Owner = l.Owner
			rec.Epoch = l.Epoch
			continue
		}
		if rec.Status == StatusRunning {
			rec.Status = StatusPending
			rec.Owner = ""
			rec.Epoch = 0
			rec.Resumes++
			requeued = append(requeued, rec.Shard.Name)
		}
	}
	return requeued
}
