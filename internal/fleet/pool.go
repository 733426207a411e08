package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dagguise/internal/ckpt"
	"dagguise/internal/obs"
	"dagguise/internal/rng"
	"dagguise/internal/sim"
)

// Options configures a fleet run.
type Options struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Dir holds the manifest and the per-shard checkpoint frames. One
	// process at a time may run a fleet in a directory.
	Dir string
	// CheckpointEvery is the per-shard checkpoint interval in simulated
	// cycles (0 = no mid-shard checkpoints; shards still resume at shard
	// granularity via the manifest).
	CheckpointEvery uint64
	// Retries is how many times a failing shard is retried before it is
	// marked failed; between attempts the worker sleeps rng.BackoffDelay
	// (deterministic capped exponential, seeded by the shard). Every
	// failure is retried: simulation errors, checkpoint trouble and
	// recovered panics alike.
	Retries int
	// Backoff and MaxBackoff bound the retry delay.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Log receives progress lines (nil = quiet). Log output is wall-clock
	// ordered and is not part of any byte-stable artifact.
	Log io.Writer
	// Attach, when set, is called on every machine a shard attempt builds
	// (each twin), before faults are attached and any checkpoint is
	// restored, inside the attempt's panic isolation. It is the hook for
	// measurement-only observers (sim.System.Observe, Profile); with more
	// than one worker it must be safe for concurrent use.
	Attach func(*sim.System)
	// Mx, when set, receives fleet counters (shards done/failed/retried,
	// checkpoints, resumes) under domain 0.
	Mx *obs.Registry
}

// pool executes a sweep's manifest over a worker pool. The manifest is
// the claim table and the only durable record of a shard's progress: a
// worker takes the lowest-index pending record under mu, marks it running
// and saves the manifest before it starts work, so the fsync'd manifest
// always names every shard in flight, and saves it again with the
// shard's result or error when the shard ends.
type pool struct {
	opts     Options
	sweep    Sweep
	manifest *Manifest
	path     string
	mu       sync.Mutex
}

// Run executes the sweep: it creates or resumes the manifest in opts.Dir,
// re-queues the shards a killed run left running, fans the non-terminal
// shards out over the worker pool, and merges the completed manifest into
// the byte-stable report. On context cancellation it returns ctx.Err()
// after parking claimed shards back to pending; a subsequent Run with the
// same sweep resumes them.
func Run(ctx context.Context, sweep Sweep, opts Options) (*Report, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("fleet: options need a directory for the manifest")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(opts.Dir, ManifestName)
	var m *Manifest
	if _, err := os.Stat(path); err == nil {
		m, err = LoadManifest(path)
		switch {
		case err == nil:
			if merr := m.Matches(sweep); merr != nil {
				return nil, merr
			}
		case errors.Is(err, ErrManifestMismatch):
			return nil, err
		default:
			// A torn or hand-mangled manifest is quarantined, and the
			// sweep starts over under a fresh one.
			quarantine(opts.Log, path, err)
			m = nil
		}
	}
	if m == nil {
		var err error
		if m, err = NewManifest(sweep); err != nil {
			return nil, err
		}
		// Nothing ties a checkpoint frame to a sweep, so a fresh manifest
		// starts every shard at cycle 0: frames left under its shard names
		// are removed before any claim.
		for _, rec := range m.Records {
			if err := os.Remove(CheckpointName(opts.Dir, rec.Shard.Name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, err
			}
		}
	}
	p := &pool{opts: opts, sweep: sweep, manifest: m, path: path}
	if n := m.requeue(); n > 0 {
		logf(opts.Log, "fleet: re-queued %d shard(s) left running by an interrupted run\n", n)
	}
	if err := p.save(); err != nil {
		return nil, err
	}
	pending, _, done, _ := m.Counts()
	logf(opts.Log, "fleet: %d shard(s), %d already done, %d worker(s)\n", len(m.Records), done, opts.Workers)
	if pending > 0 {
		var wg sync.WaitGroup
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				p.work(ctx, worker)
			}(w)
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		_, _, done, _ := p.manifest.Counts()
		logf(opts.Log, "fleet: interrupted with %d/%d shard(s) done; rerun to resume\n", done, len(p.manifest.Records))
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.save(); err != nil {
		return nil, err
	}
	return Merge(p.manifest)
}

// save persists the manifest. It is only called with p.mu held except
// during construction.
func (p *pool) save() error {
	return p.manifest.Save(p.path)
}

// claim takes the lowest-index pending shard, marks it running and saves
// the manifest, all under the pool lock. ok is false when no shard is
// pending.
func (p *pool) claim(worker int) (idx int, ok bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.manifest.Records {
		rec := &p.manifest.Records[i]
		if rec.Status != StatusPending {
			continue
		}
		rec.Status = StatusRunning
		rec.Worker = worker
		rec.Attempts++
		return i, true, p.save()
	}
	return 0, false, nil
}

// finish records a terminal (or parked) state for a claimed shard and
// saves the manifest. A failed save is logged: the record stays in memory
// for the next save, and until one succeeds the manifest on disk shows
// the shard running, so a killed run re-queues it. Once a save records
// the shard done, nothing reads its checkpoint frame again, so the frame
// is removed; a failed removal is logged and leaves the shard done.
func (p *pool) finish(worker, idx int, status Status, res *ShardResult, cause error) {
	p.mu.Lock()
	rec := &p.manifest.Records[idx]
	rec.Status = status
	rec.Result = res
	rec.Error = ""
	if cause != nil {
		rec.Error = cause.Error()
	}
	name, err := rec.Shard.Name, p.save()
	p.mu.Unlock()
	if err != nil {
		logf(p.opts.Log, "fleet: worker %d shard %s manifest save failed: %v\n", worker, name, err)
		return
	}
	if status == StatusDone {
		if err := os.Remove(CheckpointName(p.opts.Dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			logf(p.opts.Log, "fleet: worker %d shard %s checkpoint removal failed: %v\n", worker, name, err)
		}
	}
}

// bump applies a counter mutation to a record under the pool lock.
func (p *pool) bump(idx int, f func(*Record)) {
	p.mu.Lock()
	f(&p.manifest.Records[idx])
	p.mu.Unlock()
}

// work is one worker's loop: claim the next pending shard, execute it,
// and repeat until none is pending or ctx ends.
func (p *pool) work(ctx context.Context, worker int) {
	for ctx.Err() == nil {
		idx, ok, err := p.claim(worker)
		if err != nil {
			logf(p.opts.Log, "fleet: worker %d claim failed: %v\n", worker, err)
			return
		}
		if !ok {
			return
		}
		p.runClaimed(ctx, worker, idx)
	}
}

// runClaimed executes one claimed shard, retried with deterministic
// backoff, and records its terminal state.
func (p *pool) runClaimed(ctx context.Context, worker int, idx int) {
	sh := func() Shard {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.manifest.Records[idx].Shard
	}()
	var res *ShardResult
	var cause error
	for attempt := 0; ; attempt++ {
		res, cause = p.runShard(ctx, idx, sh)
		if cause == nil || ctx.Err() != nil || attempt >= p.opts.Retries {
			break
		}
		delay := rng.BackoffDelay(p.opts.Backoff, p.opts.MaxBackoff, sh.Seed, attempt)
		p.bump(idx, func(r *Record) {
			r.Retries++
			r.BackoffNs += int64(delay)
		})
		p.opts.Mx.Inc(obs.CtrFleetRetries, 0)
		logf(p.opts.Log, "fleet: worker %d shard %s attempt %d failed (%v); retrying in %s\n",
			worker, sh.Name, attempt+1, cause, delay)
		select {
		case <-ctx.Done():
		case <-time.After(delay):
		}
	}
	switch {
	case cause == nil:
		p.finish(worker, idx, StatusDone, res, nil)
		p.opts.Mx.Inc(obs.CtrFleetShardsDone, 0)
		logf(p.opts.Log, "fleet: worker %d shard %s done\n", worker, sh.Name)
	case ctx.Err() != nil:
		// Interrupted, not failed: park the shard for the resume.
		p.finish(worker, idx, StatusPending, nil, nil)
	default:
		p.finish(worker, idx, StatusFailed, nil, cause)
		p.opts.Mx.Inc(obs.CtrFleetShardsFailed, 0)
		logf(p.opts.Log, "fleet: worker %d shard %s FAILED: %v\n", worker, sh.Name, cause)
	}
}

// runShard executes one attempt with panic isolation. Simulation invariant
// violations come back from the chunk loop as errors; the recover is the
// backstop for a model bug (or an Attach hook) that panics, which then
// takes down its attempt, not the fleet.
func (p *pool) runShard(ctx context.Context, idx int, sh Shard) (res *ShardResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("fleet: shard %s panicked: %v", sh.Name, r)
		}
	}()
	build, twins, err := p.sweep.machine(sh)
	if err != nil {
		return nil, err
	}
	if attach := p.opts.Attach; attach != nil {
		bare := build
		build = func(secret int) (*sim.System, error) {
			sys, err := bare(secret)
			if err == nil {
				attach(sys)
			}
			return sys, err
		}
	}
	return runTwins(ctx, sh, ShardOptions{
		Dir:       p.opts.Dir,
		Every:     p.opts.CheckpointEvery,
		SecretA:   p.sweep.SecretA,
		SecretB:   p.sweep.SecretB,
		Faults:    p.sweep.ShardFaultSchedule(p.manifest.Fingerprint, sh),
		LoadFrame: func(path string) ([]byte, error) { return loadFrame(p.opts.Log, path) },
		OnCheckpoint: func() {
			p.bump(idx, func(r *Record) { r.Checkpoints++ })
			p.opts.Mx.Inc(obs.CtrFleetCheckpoints, 0)
		},
		OnResume: func() {
			p.bump(idx, func(r *Record) { r.Resumes++ })
			p.opts.Mx.Inc(obs.CtrFleetResumes, 0)
		},
	}, build, twins)
}

// CorruptSuffix is appended to a quarantined file: a torn or
// checksum-failed manifest or checkpoint is renamed aside (never deleted,
// so a post-mortem can inspect it) and treated as absent.
const CorruptSuffix = ".corrupt"

// quarantine renames a corrupt file aside and logs it.
func quarantine(log io.Writer, path string, cause error) {
	if err := os.Rename(path, path+CorruptSuffix); err != nil {
		_ = os.Remove(path)
	}
	logf(log, "fleet: quarantined corrupt %s (%v)\n", filepath.Base(path), cause)
}

// loadFrame reads a shard's checkpoint frame. An absent file returns
// fs.ErrNotExist untouched; a corrupt one (torn write, checksum failure)
// is quarantined and reported as absent, so the shard starts over instead
// of aborting.
func loadFrame(log io.Writer, path string) ([]byte, error) {
	payload, err := ckpt.LoadFrame(path)
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		return payload, err
	}
	quarantine(log, path, err)
	return nil, fmt.Errorf("fleet: quarantined corrupt %s: %w", path, fs.ErrNotExist)
}

// logMu serializes fleet log lines: logf formats first and issues one
// Write under the lock, so concurrent workers sharing a log writer can
// interleave whole lines but never fragments of them.
var logMu sync.Mutex

func logf(w io.Writer, format string, args ...interface{}) {
	if w == nil {
		return
	}
	line := fmt.Sprintf(format, args...)
	logMu.Lock()
	defer logMu.Unlock()
	_, _ = io.WriteString(w, line)
}
