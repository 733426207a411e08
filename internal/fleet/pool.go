package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dagguise/internal/fault"
	"dagguise/internal/obs"
	"dagguise/internal/rng"
	"dagguise/internal/sim"
	"dagguise/internal/telem"
)

// Options configures a fleet run.
type Options struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Dir holds the manifest, the per-shard checkpoint frames, and the
	// lease/result/failed files of the multi-process protocol.
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
	// Spans, when set, records one "shard:<name>" span per shard attempt
	// on the runner lane of the flight recorder.
	Spans *obs.Spans
	// Attach, when set, is called on every machine a shard attempt builds
	// (each twin), before faults are attached and any checkpoint is
	// restored, inside the attempt's panic isolation. It is the hook for
	// measurement-only observers (sim.System.Observe, Profile); with more
	// than one worker it must be safe for concurrent use.
	Attach func(*sim.System)
	// Mx, when set, receives fleet counters (shards done/failed/retried,
	// checkpoints, resumes, lease steals, fenced commits, storage faults)
	// under domain 0.
	Mx *obs.Registry
	// TelemDir, when set, enables the fleet telemetry plane: every
	// worker appends a durable telem stream there (plus a campaign-level
	// "fleet" stream), for telem.Collect / dagtop to fold.
	// Telemetry is measurement-only: manifest, checkpoints, report and
	// log bytes are identical with it on or off.
	TelemDir string
	// Proc names this process when several cooperate on one fleet
	// directory (dagchaos -join). It namespaces the telemetry streams
	// (<proc>-w<i>, fleet-<proc>) and prefixes the lease owner ids; empty
	// selects the single-process stream names and a pid-derived owner
	// prefix. Worker coordination is identical either way — claims always
	// go through the lease protocol.
	Proc string
	// LeaseTTL is the shard-lease renewal deadline: a worker's heartbeat
	// renews every TTL/3, and a lease unrenewed past TTL (+TTL/4 grace)
	// is presumed dead and stealable. Zero selects 10s. Keep it well
	// above the longest checkpoint interval's wall time; a too-short TTL
	// costs duplicated work (and fenced zombies), never correctness.
	LeaseTTL time.Duration
	// FS, when set, injects seeded storage faults (torn writes, EIO,
	// rename stalls, fsync delays) under every manifest, lease,
	// checkpoint and result write — the fleet's own chaos campaign.
	// Injected failures are retried with deterministic backoff and torn
	// artifacts quarantined to *.corrupt; the merged report bytes are
	// unaffected.
	FS *fault.FSInjector
}

// Pool executes a sweep's manifest over a worker pool. Shard ownership is
// arbitrated by per-shard lease files in the fleet directory — never by
// the in-process mutex — so K independent processes pointed at the same
// directory cooperate purely through shared storage: claims are exclusive
// creates, liveness is heartbeat renewal, crashed owners are stolen from
// after TTL, and the fencing epoch keeps any zombie from overwriting a
// committed result. The local manifest is a durable cache of that
// authoritative per-shard state (results, failure markers, leases),
// rebuilt by Reconcile on every start.
type pool struct {
	opts     Options
	sweep    Sweep
	manifest *Manifest
	path     string
	proc     string
	poll     time.Duration
	lm       *LeaseManager
	io       *fsio
	mu       sync.Mutex
	// telem holds one emitter per worker (nil slice when telemetry is
	// off; emitters themselves are nil-safe).
	telem []*telem.Emitter
}

// Run executes the sweep: it creates or resumes the manifest in opts.Dir,
// fans the non-terminal shards out over the worker pool under the lease
// protocol, waits out (or steals from) any peer processes working the
// same directory, and merges the completed manifest into the byte-stable
// report. On context cancellation it returns ctx.Err() after parking
// claimed shards back to pending and releasing their leases; a subsequent
// Run with the same sweep resumes them.
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
	fsio := newFSIO(opts.FS, opts.Backoff, opts.MaxBackoff)
	fsio.onFault = func(kind fault.FSKind, path string) {
		opts.Mx.Inc(obs.CtrFleetFSFaults, 0)
		logf(opts.Log, "fleet: injected %s fault on %s\n", kind, filepath.Base(path))
	}
	fsio.onQuarantine = func(path string, cause error) {
		logf(opts.Log, "fleet: quarantined corrupt %s (%v)\n", filepath.Base(path), cause)
	}
	lm := NewLeaseManager(opts.Dir, opts.LeaseTTL, fsio)
	proc := opts.Proc
	if proc == "" {
		proc = fmt.Sprintf("solo-%d", os.Getpid())
	}
	poll := lm.TTL() / 4
	if poll > 500*time.Millisecond {
		poll = 500 * time.Millisecond
	}
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
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
			// A torn or hand-mangled manifest is quarantined and rebuilt:
			// the per-shard result/failed/lease files are the
			// authoritative state, and Reconcile below re-derives the
			// queue from them.
			fsio.quarantine(path, err)
			m = nil
		}
	}
	if m == nil {
		var err error
		m, err = NewManifest(sweep)
		if err != nil {
			return nil, err
		}
	}
	p := &pool{opts: opts, sweep: sweep, manifest: m, path: path, proc: proc, poll: poll, lm: lm, io: fsio}
	requeued := Reconcile(m, opts.Dir, lm, fsio)
	if len(requeued) > 0 {
		logf(opts.Log, "fleet: re-queued %d shard(s) with lapsed leases\n", len(requeued))
	}
	var campaign *telem.Emitter
	if opts.TelemDir != "" {
		fp := m.Fingerprint
		e, err := telem.OpenEmitter(opts.TelemDir, p.campaignStream(), fp)
		if err != nil {
			return nil, err
		}
		campaign = e
		defer campaign.Close()
		campaign.Campaign(len(m.Records), opts.Workers, sweep.Cycles)
		for _, name := range requeued {
			campaign.Shard(name, telem.EventRequeue, "", 0)
		}
		if err := campaign.Sync(); err != nil {
			return nil, err
		}
		p.telem = make([]*telem.Emitter, opts.Workers)
		for w := range p.telem {
			we, err := telem.OpenEmitter(opts.TelemDir, p.workerStream(w), fp)
			if err != nil {
				return nil, err
			}
			p.telem[w] = we
			defer we.Close()
		}
	}
	if err := p.save(); err != nil {
		return nil, err
	}
	pending, running, done, _ := m.Counts()
	logf(opts.Log, "fleet: %d shard(s), %d already done, %d worker(s)\n", len(m.Records), done, opts.Workers)
	if pending > 0 || running > 0 {
		var wg sync.WaitGroup
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				p.work(ctx, worker)
			}(w)
		}
		var mxWG sync.WaitGroup
		stopMx := make(chan struct{})
		if campaign != nil && opts.Mx != nil {
			// Periodic fleet counter deltas onto the campaign stream (ops
			// plane): one snapshot diff per tick, one final flush on stop.
			mxWG.Add(1)
			go func() {
				defer mxWG.Done()
				var prev *obs.Snapshot
				tick := time.NewTicker(time.Second)
				defer tick.Stop()
				for {
					select {
					case <-stopMx:
						campaign.Metrics(opts.Mx.Snapshot(), prev)
						_ = campaign.Sync()
						return
					case <-tick.C:
						snap := opts.Mx.Snapshot()
						campaign.Metrics(snap, prev)
						prev = snap
					}
				}
			}()
		}
		wg.Wait()
		close(stopMx)
		mxWG.Wait()
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
	// One last fold of the directory state: a peer may have committed the
	// final results while our workers were already draining.
	Reconcile(p.manifest, opts.Dir, lm, fsio)
	if err := p.save(); err != nil {
		return nil, err
	}
	return Merge(p.manifest)
}

// campaignStream names this process's campaign-level telemetry stream.
func (p *pool) campaignStream() string {
	if p.opts.Proc == "" {
		return "fleet"
	}
	return "fleet-" + p.opts.Proc
}

// workerStream names one worker's telemetry stream.
func (p *pool) workerStream(w int) string {
	if p.opts.Proc == "" {
		return strconv.Itoa(w)
	}
	return p.opts.Proc + "-w" + strconv.Itoa(w)
}

// owner is the lease identity of one worker: process prefix + worker
// index. The process prefix is unique per incarnation, which is the real
// fence — the epoch is the observable, monotonic generation number.
func (p *pool) owner(worker int) string {
	return p.proc + "-w" + strconv.Itoa(worker)
}

// save persists the manifest. It is only called with p.mu held except
// during construction.
func (p *pool) save() error {
	blob, err := p.manifest.encode()
	if err != nil {
		return err
	}
	return p.io.writeAtomic(p.path, blob)
}

// status reads a record's queue state under the pool lock.
func (p *pool) status(idx int) Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.manifest.Records[idx].Status
}

// claim walks the manifest for work: terminal artifacts committed by
// peers are adopted, expired leases are stolen, and the lowest-index
// claimable shard is leased and marked running. held == nil with
// anyOpen == true means every remaining shard is owned by a live peer —
// the caller waits and rescans; anyOpen == false means the queue is
// fully terminal.
func (p *pool) claim(worker int, owner string) (idx int, held *Held, anyOpen bool, err error) {
	n := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.manifest.Records)
	}()
	for i := 0; i < n; i++ {
		switch p.status(i) {
		case StatusDone, StatusFailed:
			continue
		}
		name := func() string {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.manifest.Records[i].Shard.Name
		}()
		if res, rerr := loadResult(p.io, p.opts.Dir, name); rerr == nil {
			p.adoptDone(i, res)
			continue
		}
		if fm, ferr := loadFailed(p.io, p.opts.Dir, name); ferr == nil {
			p.adoptFailed(i, fm)
			continue
		}
		h, aerr := p.lm.Acquire(name, owner)
		if errors.Is(aerr, ErrLeaseHeld) {
			p.observeLease(i, name)
			anyOpen = true
			continue
		}
		if aerr != nil {
			return 0, nil, anyOpen, aerr
		}
		p.mu.Lock()
		rec := &p.manifest.Records[i]
		rec.Status = StatusRunning
		rec.Worker = worker
		rec.Owner = h.Owner()
		rec.Epoch = h.Epoch()
		rec.Attempts++
		if h.Stole() {
			rec.Steals++
		}
		serr := p.save()
		p.mu.Unlock()
		if serr != nil {
			p.lm.Release(h)
			return 0, nil, anyOpen, serr
		}
		return i, h, anyOpen, nil
	}
	return 0, nil, anyOpen, nil
}

// adoptDone records a result committed by a peer (or a previous
// incarnation) without re-running the shard.
func (p *pool) adoptDone(idx int, res *ShardResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec := &p.manifest.Records[idx]
	if rec.Status == StatusDone {
		return
	}
	rec.Status = StatusDone
	rec.Result = res
	rec.Error = ""
	rec.Owner = ""
	rec.Epoch = 0
	_ = p.save()
	logf(p.opts.Log, "fleet: adopted committed shard %s\n", rec.Shard.Name)
}

// adoptFailed records a terminal failure marked durably by a peer.
func (p *pool) adoptFailed(idx int, fm *failedMarker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec := &p.manifest.Records[idx]
	if rec.Status == StatusFailed {
		return
	}
	rec.Status = StatusFailed
	rec.Result = nil
	rec.Error = fm.Error
	rec.Owner = ""
	rec.Epoch = 0
	_ = p.save()
	logf(p.opts.Log, "fleet: adopted failed shard %s (%s)\n", rec.Shard.Name, fm.Error)
}

// observeLease mirrors a live peer's lease into the local record.
func (p *pool) observeLease(idx int, name string) {
	l, live, ok := p.lm.Peek(name)
	if !ok || !live {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rec := &p.manifest.Records[idx]
	if rec.Status == StatusDone || rec.Status == StatusFailed {
		return
	}
	rec.Status = StatusRunning
	rec.Owner = l.Owner
	rec.Epoch = l.Epoch
}

// finish records a terminal (or parked) state for a claimed shard.
func (p *pool) finish(idx int, status Status, res *ShardResult, cause error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec := &p.manifest.Records[idx]
	rec.Status = status
	rec.Result = res
	rec.Error = ""
	rec.Owner = ""
	rec.Epoch = 0
	if cause != nil {
		rec.Error = cause.Error()
	}
	return p.save()
}

// bump applies a counter mutation to a record under the pool lock.
func (p *pool) bump(idx int, f func(*Record)) {
	p.mu.Lock()
	f(&p.manifest.Records[idx])
	p.mu.Unlock()
}

// emitter returns the worker's telemetry emitter (nil when telemetry is
// off — every emitter method is nil-safe).
func (p *pool) emitter(worker int) *telem.Emitter {
	if worker < len(p.telem) {
		return p.telem[worker]
	}
	return nil
}

// work is one worker's loop: claim through the lease protocol, execute,
// and repeat. When every unclaimed shard is held by a live peer the
// worker polls — adopting results as peers commit them, stealing leases
// as they lapse — until the whole queue is terminal.
func (p *pool) work(ctx context.Context, worker int) {
	owner := p.owner(worker)
	for ctx.Err() == nil {
		idx, held, anyOpen, err := p.claim(worker, owner)
		if err != nil {
			logf(p.opts.Log, "fleet: worker %d claim failed: %v\n", worker, err)
			return
		}
		if held == nil {
			if !anyOpen {
				return
			}
			select {
			case <-ctx.Done():
			case <-time.After(p.poll):
			}
			continue
		}
		p.runClaimed(ctx, worker, idx, held)
	}
}

// runClaimed executes one leased shard: heartbeat-renewed, retried with
// deterministic backoff, and terminated through the fencing commit.
func (p *pool) runClaimed(ctx context.Context, worker int, idx int, held *Held) {
	rec := func() Record {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.manifest.Records[idx]
	}()
	sh := rec.Shard
	e := p.emitter(worker)
	if held.Stole() {
		p.opts.Mx.Inc(obs.CtrFleetLeaseSteals, 0)
		e.Lease(sh.Name, telem.EventSteal, held.Owner(), held.Epoch(), 0)
		logf(p.opts.Log, "fleet: worker %d stole lapsed lease on %s (epoch %d)\n", worker, sh.Name, held.Epoch())
	}
	e.Lease(sh.Name, telem.EventClaim, held.Owner(), held.Epoch(), sh.Cycles)
	_ = e.Sync()

	// A fencing event (the heartbeat finding a thief's lease) cancels the
	// shard context with the fence as its cause: the attempt stops at the
	// next chunk boundary and the terminal switch below abandons the
	// shard to its new owner.
	shardCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	stopHB := p.lm.Heartbeat(shardCtx, held, func(err error) { cancel(err) })

	var res *ShardResult
	var cause error
	for attempt := 0; ; attempt++ {
		span := uint64(0)
		if p.opts.Spans != nil {
			span = p.opts.Spans.Begin("shard:"+sh.Name, obs.CompRunner, int32(idx), 0, 0, 0)
		}
		res, cause = p.runShard(shardCtx, idx, sh, e)
		if p.opts.Spans != nil {
			p.opts.Spans.End(span, sh.Cycles)
		}
		if cause == nil || shardCtx.Err() != nil || attempt >= p.opts.Retries {
			break
		}
		delay := rng.BackoffDelay(p.opts.Backoff, p.opts.MaxBackoff, sh.Seed, attempt)
		p.bump(idx, func(r *Record) {
			r.Retries++
			r.BackoffNs += int64(delay)
		})
		p.opts.Mx.Inc(obs.CtrFleetRetries, 0)
		e.Shard(sh.Name, telem.EventRetry, cause.Error(), 0)
		logf(p.opts.Log, "fleet: worker %d shard %s attempt %d failed (%v); retrying in %s\n",
			worker, sh.Name, attempt+1, cause, delay)
		select {
		case <-shardCtx.Done():
		case <-time.After(delay):
		}
	}
	stopHB()
	fenced := errors.Is(context.Cause(shardCtx), ErrFenced)

	// Telemetry for a terminal state is emitted AND synced before the
	// manifest transition is saved: the durable stream is never behind
	// the durable manifest, so a resumed collector always sees every
	// shard the manifest says finished.
	switch {
	case cause == nil:
		err := commitResult(p.io, p.lm, held, p.opts.Dir, res)
		if errors.Is(err, ErrFenced) {
			p.fenced(worker, idx, sh, held, e, err)
			return
		}
		if err != nil {
			e.Shard(sh.Name, telem.EventFailed, err.Error(), 0)
			_ = e.Sync()
			_ = writeFailed(p.io, p.opts.Dir, sh.Name, err.Error(), rec.Attempts)
			_ = p.finish(idx, StatusFailed, nil, err)
			p.lm.Release(held)
			p.opts.Mx.Inc(obs.CtrFleetShardsFailed, 0)
			logf(p.opts.Log, "fleet: worker %d shard %s commit FAILED: %v\n", worker, sh.Name, err)
			return
		}
		e.SpanBegin(sh.Name, "shard:"+sh.Name, 0)
		e.SpanEnd(sh.Name, "shard:"+sh.Name, 0, sh.Cycles)
		leak := 0.0
		if res.Interference {
			leak = 1
		}
		e.Point("leak/"+sh.Scheme+"/"+sh.Name, sh.Cycles, leak)
		e.Shard(sh.Name, telem.EventDone, "", sh.Cycles)
		_ = e.Sync()
		_ = p.finish(idx, StatusDone, res, nil)
		p.lm.Release(held)
		p.opts.Mx.Inc(obs.CtrFleetShardsDone, 0)
		logf(p.opts.Log, "fleet: worker %d shard %s done\n", worker, sh.Name)
	case fenced:
		p.fenced(worker, idx, sh, held, e, context.Cause(shardCtx))
	case ctx.Err() != nil:
		// Interrupted, not failed: park the shard for the resume and
		// release the lease so a live peer can take over immediately.
		e.Shard(sh.Name, telem.EventRequeue, "", 0)
		_ = e.Sync()
		_ = p.finish(idx, StatusPending, nil, nil)
		p.lm.Release(held)
	default:
		e.Shard(sh.Name, telem.EventFailed, cause.Error(), 0)
		_ = e.Sync()
		_ = writeFailed(p.io, p.opts.Dir, sh.Name, cause.Error(), rec.Attempts)
		_ = p.finish(idx, StatusFailed, nil, cause)
		p.lm.Release(held)
		p.opts.Mx.Inc(obs.CtrFleetShardsFailed, 0)
		logf(p.opts.Log, "fleet: worker %d shard %s FAILED: %v\n", worker, sh.Name, cause)
	}
}

// fenced abandons a shard whose lease was stolen while this worker slept:
// the thief owns the work now, and the write-once commit has already
// refused (or will refuse) this worker's stale result. The record returns
// to pending so the claim scan adopts the thief's result when it lands.
func (p *pool) fenced(worker, idx int, sh Shard, held *Held, e *telem.Emitter, cause error) {
	e.Lease(sh.Name, telem.EventFenced, held.Owner(), held.Epoch(), 0)
	_ = e.Sync()
	p.bump(idx, func(r *Record) { r.Fenced++ })
	_ = p.finish(idx, StatusPending, nil, nil)
	p.opts.Mx.Inc(obs.CtrFleetFencedCommits, 0)
	logf(p.opts.Log, "fleet: worker %d shard %s fenced (%v); abandoning to new owner\n", worker, sh.Name, cause)
}

// runShard executes one attempt with panic isolation. Simulation invariant
// violations come back from the chunk loop as errors; the recover is the
// backstop for a model bug (or an Attach hook) that panics, which then
// takes down its attempt, not the fleet.
func (p *pool) runShard(ctx context.Context, idx int, sh Shard, e *telem.Emitter) (res *ShardResult, err error) {
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
		SaveFrame: p.io.saveFrame,
		LoadFrame: p.io.loadFrame,
		OnCheckpoint: func() {
			p.bump(idx, func(r *Record) { r.Checkpoints++ })
			p.opts.Mx.Inc(obs.CtrFleetCheckpoints, 0)
		},
		OnResume: func() {
			p.bump(idx, func(r *Record) { r.Resumes++ })
			p.opts.Mx.Inc(obs.CtrFleetResumes, 0)
		},
		OnChunk: func(lo, hi uint64, c sim.ClusterCounters) {
			if e == nil {
				return
			}
			// Chunk bounds are deterministic (multiples of the
			// checkpoint interval), so a crash-replayed chunk re-emits
			// byte-identical deterministic records and the collector's
			// dedup collapses them. The Sync runs before the chunk loop cuts
			// the chunk's checkpoint — see ShardOptions.OnChunk.
			e.Heartbeat(sh.Name, hi)
			e.SpanBegin(sh.Name, "chunk", lo)
			e.SpanEnd(sh.Name, "chunk", lo, hi)
			e.Point("completed/"+sh.Name, hi, float64(c.Completed))
			e.Point("issued/"+sh.Name, hi, float64(c.Issued))
			e.Point("stalls/"+sh.Name, hi, float64(c.Stalls))
			_ = e.Sync()
		},
	}, build, twins)
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
