package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dagguise/internal/fault"
)

// Lease file naming inside a fleet directory: <name>.lease is the live
// claim, <name>.tomb is the fencing grave a terminated lease leaves
// behind (see LeaseManager for the epoch rules).
const (
	LeaseSuffix = ".lease"
	TombSuffix  = ".tomb"
)

// ErrFenced reports a commit or renewal attempted with a stale lease: the
// holder slept past its expiry, a peer stole the claim, and the fencing
// check refused the zombie's write. The stolen work is owned by the
// thief; the fenced worker must abandon the shard, never retry it.
var ErrFenced = errors.New("fleet: lease fenced by a newer owner")

// ErrLeaseHeld reports a claim attempt on a lease another owner holds and
// is still renewing; the claimer moves on to other work.
var ErrLeaseHeld = errors.New("fleet: lease held by a live owner")

// Lease is the on-disk claim on one unit of work: who owns it, the
// monotonic fencing epoch of this ownership generation, and the wall
// clock past which the owner is presumed dead and the claim stealable.
type Lease struct {
	Name          string `json:"name"`
	Owner         string `json:"owner"`
	Epoch         uint64 `json:"epoch"`
	ExpiresUnixMs int64  `json:"expires_unix_ms"`
}

// LeaseManager implements lease-based claims over a shared directory, the
// coordination fabric that lets K independent fleet processes share one
// work queue with no channel between them but the filesystem:
//
//   - Claim: the lease file is published write-once (temp file, then a
//     hard link that never replaces) — exactly one racer's link
//     succeeds. The new lease's epoch is the tomb's epoch + 1 (0 when no
//     tomb exists), so epochs grow monotonically across ownership
//     generations.
//   - Renew: the holder's heartbeat rewrites the lease (atomic rename)
//     with a fresh expiry. A renewal that finds another owner in the file
//     returns ErrFenced — the holder was stolen from while asleep.
//   - Steal: a claimer that finds an expired lease renames it to the tomb
//     file. Rename is the arbiter: only one racer renames the current
//     inode (the rest get ENOENT and re-enter the claim loop), and the
//     tomb then carries the dead generation's epoch for the successor.
//   - Release: a voluntary termination also renames lease → tomb, so the
//     epoch chain stays monotonic across clean handoffs too.
//
// One documented race is accepted: a steal validates expiry and then
// renames, so a renewal landing in that window can lose a live lease.
// Safety is unaffected — the old owner's next renewal or commit fences —
// and the fleet's results are deterministic, so even a doubly-run shard
// commits identical bytes.
type LeaseManager struct {
	dir   string
	ttl   time.Duration
	grace time.Duration
	io    *fsio
	// now is the wall clock, injectable for tests.
	now func() time.Time
}

// NewLeaseManager builds a lease manager over dir. ttl is the renewal
// deadline a holder must beat; expired leases become stealable after a
// further ttl/4 grace (clock-skew margin). A nil io selects the plain
// durable-write path.
func NewLeaseManager(dir string, ttl time.Duration, io *fsio) *LeaseManager {
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	if io == nil {
		io = newFSIO(nil, 0, 0)
	}
	return &LeaseManager{
		dir:   dir,
		ttl:   ttl,
		grace: ttl / 4,
		io:    io,
		now:   time.Now,
	}
}

// TTL returns the lease renewal deadline.
func (lm *LeaseManager) TTL() time.Duration { return lm.ttl }

// Held is an acquired lease: the handle that renews, fences commits, and
// releases the claim.
type Held struct {
	lm    *LeaseManager
	name  string
	owner string
	epoch uint64
	// stole reports that acquiring this lease evicted an expired
	// predecessor (telemetry: the steal is attributed to this owner).
	stole bool
}

// Name returns the leased work unit's name.
func (h *Held) Name() string { return h.name }

// Owner returns the holder identity the lease was acquired under.
func (h *Held) Owner() string { return h.owner }

// Epoch returns the fencing epoch of this ownership generation.
func (h *Held) Epoch() uint64 { return h.epoch }

// Stole reports whether the acquisition evicted an expired lease.
func (h *Held) Stole() bool { return h.stole }

func (lm *LeaseManager) leasePath(name string) string {
	return filepath.Join(lm.dir, name+LeaseSuffix)
}

func (lm *LeaseManager) tombPath(name string) string {
	return filepath.Join(lm.dir, name+TombSuffix)
}

// read parses the lease (or tomb) at path, quarantining torn or garbage
// files so a crashed writer cannot wedge the claim loop.
func (lm *LeaseManager) read(path string) (Lease, error) {
	var l Lease
	blob, err := lm.io.readFile(path, func(b []byte) error {
		var probe Lease
		if err := json.Unmarshal(b, &probe); err != nil {
			return err
		}
		if probe.Name == "" || probe.Owner == "" {
			return fmt.Errorf("fleet: lease %s missing name or owner", path)
		}
		return nil
	})
	if err != nil {
		return Lease{}, err
	}
	// The validator above proved the bytes parse.
	_ = json.Unmarshal(blob, &l)
	return l, nil
}

// Peek returns the current lease on name and whether it is still live
// (within expiry + grace). ok is false when no lease file exists.
func (lm *LeaseManager) Peek(name string) (l Lease, live, ok bool) {
	l, err := lm.read(lm.leasePath(name))
	if err != nil {
		return Lease{}, false, false
	}
	return l, lm.now().UnixMilli() < l.ExpiresUnixMs+lm.grace.Milliseconds(), true
}

// Acquire claims the lease on name for owner. It returns ErrLeaseHeld
// when a live owner holds it; expired leases are stolen through the tomb
// protocol. The returned Held carries the new generation's epoch.
func (lm *LeaseManager) Acquire(name, owner string) (*Held, error) {
	path := lm.leasePath(name)
	stole := false
	for attempt := 0; ; attempt++ {
		if attempt > 64 {
			return nil, fmt.Errorf("fleet: lease %s: claim loop livelocked", name)
		}
		cur, err := lm.read(path)
		switch {
		case err == nil && cur.Owner == owner:
			// Our own residue (a crashed prior incarnation of this exact
			// owner id): owner ids embed a per-process nonce, so this is
			// us — adopt the generation and renew it.
			h := &Held{lm: lm, name: name, owner: owner, epoch: cur.Epoch, stole: stole}
			if err := lm.Renew(h); err != nil {
				continue
			}
			return h, nil
		case err == nil && lm.now().UnixMilli() < cur.ExpiresUnixMs+lm.grace.Milliseconds():
			return nil, fmt.Errorf("%w: %s owned by %s (epoch %d)", ErrLeaseHeld, name, cur.Owner, cur.Epoch)
		case err == nil:
			// Expired: steal by renaming lease → tomb. Exactly one racer
			// wins the rename; losers loop and find the fresh state.
			if err := os.Rename(path, lm.tombPath(name)); err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					continue
				}
				return nil, err
			}
			lm.syncDir()
			stole = true
			continue
		case !errors.Is(err, fs.ErrNotExist):
			return nil, err
		}
		// No lease: claim a fresh generation above the tomb's epoch.
		epoch := uint64(1)
		if tomb, terr := lm.read(lm.tombPath(name)); terr == nil {
			epoch = tomb.Epoch + 1
		}
		l := Lease{Name: name, Owner: owner, Epoch: epoch, ExpiresUnixMs: lm.now().Add(lm.ttl).UnixMilli()}
		err = lm.createExcl(path, l)
		switch {
		case err == nil:
			return &Held{lm: lm, name: name, owner: owner, epoch: epoch, stole: stole}, nil
		case errors.Is(err, fs.ErrExist):
			continue // lost the create race
		case errors.Is(err, fault.ErrInjectedIO):
			continue // our torn residue; the next read quarantines it
		default:
			return nil, err
		}
	}
}

// createExcl publishes a fresh lease write-once: linkFile's hard link
// fails fs.ErrExist rather than replacing, so exactly one racer's claim
// succeeds, and the lease appears with its full content — a concurrent
// claimer never reads a half-written lease and quarantines it as corrupt.
// Injected faults may leave a torn lease at the path; the claim loop's
// read quarantines it and retries.
func (lm *LeaseManager) createExcl(path string, l Lease) error {
	blob, err := json.Marshal(l)
	if err != nil {
		return err
	}
	if err := lm.io.fault(path, blob); err != nil {
		return err
	}
	return linkFile(filepath.Dir(path), path, blob)
}

// Renew extends the holder's expiry. It re-reads the lease first: a file
// now owned by someone else (or gone) means this holder was stolen from,
// and the renewal fails with ErrFenced.
func (lm *LeaseManager) Renew(h *Held) error {
	path := lm.leasePath(h.name)
	cur, err := lm.read(path)
	if err != nil || cur.Owner != h.owner || cur.Epoch != h.epoch {
		return fmt.Errorf("%w: %s renewing epoch %d, lease is %s", ErrFenced, h.owner, h.epoch, describeLease(cur, err))
	}
	cur.ExpiresUnixMs = lm.now().Add(lm.ttl).UnixMilli()
	blob, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	return lm.io.writeAtomic(path, blob)
}

// Release terminates the holder's generation, leaving the tomb so the
// next claim's epoch stays above this one. A holder that was already
// stolen from releases nothing (the thief owns the file now).
func (lm *LeaseManager) Release(h *Held) {
	path := lm.leasePath(h.name)
	cur, err := lm.read(path)
	if err != nil || cur.Owner != h.owner || cur.Epoch != h.epoch {
		return
	}
	if err := os.Rename(path, lm.tombPath(h.name)); err == nil {
		lm.syncDir()
	}
}

// Check re-validates ownership: the fencing gate commit paths call before
// publishing results. ErrFenced means a newer generation owns the work.
func (lm *LeaseManager) Check(h *Held) error {
	cur, err := lm.read(lm.leasePath(h.name))
	if err != nil || cur.Owner != h.owner || cur.Epoch != h.epoch {
		return fmt.Errorf("%w: %s holds epoch %d, lease is %s", ErrFenced, h.owner, h.epoch, describeLease(cur, err))
	}
	return nil
}

// Heartbeat renews the lease every TTL/3 until ctx ends or the stop
// function is called; a fencing failure invokes onFence once and ends
// the loop. It returns the stop function.
func (lm *LeaseManager) Heartbeat(ctx context.Context, h *Held, onFence func(error)) (stop func()) {
	done := make(chan struct{})
	stopCh := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(lm.ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-stopCh:
				return
			case <-tick.C:
				if err := lm.Renew(h); err != nil {
					if errors.Is(err, ErrFenced) && onFence != nil {
						onFence(err)
					}
					return
				}
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(stopCh)
		<-done
	})
}

// syncDir fsyncs the lease directory so renames and creates are durable
// before the caller proceeds on their strength.
func (lm *LeaseManager) syncDir() {
	if d, err := os.Open(lm.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// describeLease renders the competing lease state for fencing errors.
func describeLease(l Lease, err error) string {
	if err != nil {
		return "gone"
	}
	return fmt.Sprintf("owned by %s (epoch %d)", l.Owner, l.Epoch)
}
