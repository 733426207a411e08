package fleet

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"dagguise/internal/ckpt"
	"dagguise/internal/fault"
	"dagguise/internal/rng"
)

// CorruptSuffix is appended to quarantined artifacts: a torn or
// checksum-failed manifest, lease or checkpoint is renamed aside (never
// deleted, so a post-mortem can inspect it) and treated as absent.
const CorruptSuffix = ".corrupt"

// fsio is the fleet's durable-IO layer: every manifest, lease,
// checkpoint and result write funnels through it so a fault.FSSchedule
// can perturb the storage underneath the coordination protocol. Writes
// that draw an injected fault retry with rng.BackoffDelay; reads that
// hit a corrupt artifact quarantine it to *.corrupt and report
// fs.ErrNotExist, which every caller already treats as "start fresh".
// A zero-value fsio (nil injector) is the production path: plain
// ckpt.WriteFileAtomic semantics with no retries needed.
type fsio struct {
	inj     *fault.FSInjector
	retries int
	backoff time.Duration
	maxWait time.Duration
	seed    int64
	// onFault observes every injected fault (counter hook); onQuarantine
	// observes every quarantined artifact. Both may be nil.
	onFault      func(kind fault.FSKind, path string)
	onQuarantine func(path string, cause error)
}

// newFSIO builds the durable-IO layer; inj may be nil (no injection).
func newFSIO(inj *fault.FSInjector, backoff, maxWait time.Duration) *fsio {
	if backoff <= 0 {
		backoff = 5 * time.Millisecond
	}
	if maxWait <= 0 {
		maxWait = 250 * time.Millisecond
	}
	return &fsio{inj: inj, retries: 8, backoff: backoff, maxWait: maxWait, seed: 0x46534943}
}

// fault applies the next operation's injected faults. It returns a
// non-nil error when the operation must fail this attempt; torn writes
// deposit their partial artifact at path first.
func (f *fsio) fault(path string, data []byte) error {
	for _, ev := range f.inj.NextOp() {
		if f.onFault != nil {
			f.onFault(ev.Kind, path)
		}
		switch ev.Kind {
		case fault.FSWriteEIO:
			return fmt.Errorf("%w: %s", fault.ErrInjectedIO, path)
		case fault.FSTornWrite:
			// A non-atomic writer died mid-write: half the payload lands
			// at the target path directly, bypassing the atomic protocol.
			_ = os.WriteFile(path, data[:len(data)/2], 0o644)
			return fmt.Errorf("%w: torn write %s", fault.ErrInjectedIO, path)
		case fault.FSRenameStall, fault.FSFsyncDelay:
			time.Sleep(time.Duration(ev.DelayMs) * time.Millisecond)
		}
	}
	return nil
}

// writeAtomic durably writes data to path under fault injection,
// retrying injected failures with deterministic backoff.
func (f *fsio) writeAtomic(path string, data []byte) error {
	for attempt := 0; ; attempt++ {
		err := f.fault(path, data)
		if err == nil {
			err = ckpt.WriteFileAtomic(path, data)
		}
		if err == nil {
			return nil
		}
		if attempt >= f.retries || !errors.Is(err, fault.ErrInjectedIO) {
			return err
		}
		time.Sleep(rng.BackoffDelay(f.backoff, f.maxWait, f.seed, attempt))
	}
}

// saveFrame writes a checksum-framed payload durably (the checkpoint and
// result format) under fault injection.
func (f *fsio) saveFrame(path string, payload []byte) error {
	return f.writeAtomic(path, ckpt.Frame(payload))
}

// loadFrame reads a framed artifact. Absent files return fs.ErrNotExist
// untouched; corrupt ones (torn writes, checksum failures) are
// quarantined to path+CorruptSuffix and reported as absent, so the
// caller regenerates or re-fetches the artifact instead of aborting.
func (f *fsio) loadFrame(path string) ([]byte, error) {
	payload, err := ckpt.LoadFrame(path)
	if err == nil {
		return payload, nil
	}
	if errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	f.quarantine(path, err)
	return nil, fmt.Errorf("fleet: quarantined corrupt %s: %w", path, fs.ErrNotExist)
}

// readFile reads a raw artifact (leases, manifests) with the same
// quarantine discipline as loadFrame; validate reports whether the bytes
// parse, so torn JSON is quarantined rather than surfaced.
func (f *fsio) readFile(path string, validate func([]byte) error) ([]byte, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if validate != nil {
		if verr := validate(blob); verr != nil {
			f.quarantine(path, verr)
			return nil, fmt.Errorf("fleet: quarantined corrupt %s: %w", path, fs.ErrNotExist)
		}
	}
	return blob, nil
}

// quarantine renames a corrupt artifact aside.
func (f *fsio) quarantine(path string, cause error) {
	if err := os.Rename(path, path+CorruptSuffix); err != nil {
		// Already quarantined by a peer (or vanished): nothing to keep.
		_ = os.Remove(path)
	}
	if f.onQuarantine != nil {
		f.onQuarantine(path, cause)
	}
}
