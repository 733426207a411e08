package telem

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dagguise/internal/ckpt"
	"dagguise/internal/obs"
)

// Emitter appends one worker's telemetry stream. Like every collector in
// internal/obs it is nil-no-op: all methods are safe on a nil receiver
// and cost one predictable branch, so call sites stay unconditional and
// the disabled overhead is pinned by a benchmark guard (~2 ns/site).
//
// Writes are crash-safe by construction: on open the emitter repairs a
// torn tail left by a previous SIGKILL (truncating the file back to its
// last valid framed line), every record is one framed line appended with
// a single write, and Sync fsyncs the file. The fleet pool syncs the
// stream before it cuts a shard checkpoint, so any chunk the resumed
// shard will skip is already durable in some stream — the invariant
// that keeps the collector's report byte-identical across crashes.
type Emitter struct {
	mu     sync.Mutex
	f      *os.File
	bw     *bufio.Writer
	worker string
	// now is the wall clock, injectable for tests. Only ops-plane
	// records ever read it.
	now func() int64
}

// OpenEmitter opens (creating or repairing) the stream for worker inside
// dir and writes a hello record carrying the sweep fingerprint. The hello
// reaches the file at once, so a live reader never finds the stream
// without it.
func OpenEmitter(dir, worker, fingerprint string) (*Emitter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telem: %w", err)
	}
	path := filepath.Join(dir, StreamName(worker))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telem: %w", err)
	}
	if err := repairTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("telem: repair %s: %w", path, err)
	}
	e := &Emitter{
		f:      f,
		bw:     bufio.NewWriter(f),
		worker: worker,
		now:    func() int64 { return time.Now().UnixMilli() },
	}
	err = e.emit(Record{Kind: KindHello, Version: Version, Worker: worker, Fingerprint: fingerprint, Wall: e.now()})
	if err == nil {
		err = e.bw.Flush()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return e, nil
}

// SetClock overrides the wall clock used to stamp ops-plane records
// (tests inject a deterministic clock). No-op on nil.
func (e *Emitter) SetClock(now func() int64) {
	if e == nil || now == nil {
		return
	}
	e.mu.Lock()
	e.now = now
	e.mu.Unlock()
}

// repairTail truncates f back to the end of its last valid framed line,
// discarding a tail torn by a crash mid-append. Valid lines before the
// torn tail are never touched; a corrupt line followed by more valid
// lines is real corruption and refuses the stream.
func repairTail(f *os.File) error {
	data, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	valid := int64(0)
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail: torn
		}
		line := data[off : off+nl+1]
		if _, err := ckpt.UnframeLine(line); err != nil {
			// A broken line is only tolerable as the very tail.
			if rest := data[off+nl+1:]; bytes.ContainsAny(rest, "\n") {
				return fmt.Errorf("telem: corrupt line mid-stream at byte %d: %w", off, err)
			}
			break
		}
		off += nl + 1
		valid = int64(off)
	}
	if valid != int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			return err
		}
	}
	_, err = f.Seek(valid, io.SeekStart)
	return err
}

// emit frames and appends one record.
func (e *Emitter) emit(r Record) error {
	payload, err := r.encode()
	if err != nil {
		return err
	}
	line, err := ckpt.FrameLine(payload)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bw == nil {
		return fmt.Errorf("telem: emitter closed")
	}
	_, err = e.bw.Write(line)
	return err
}

// Campaign records the campaign shape (ops plane). No-op on nil.
func (e *Emitter) Campaign(shards, workers int, cycles uint64) {
	if e == nil {
		return
	}
	_ = e.emit(Record{Kind: KindCampaign, Shards: shards, Workers: workers, T: cycles, Wall: e.wall()})
}

// Shard records a shard lifecycle event (ops plane): claim, retry,
// requeue, done, failed. t is the shard's cycle budget on claim and its
// final cycle on done. No-op on nil.
func (e *Emitter) Shard(shard, event, cause string, t uint64) {
	if e == nil {
		return
	}
	_ = e.emit(Record{Kind: KindShard, Shard: shard, Event: event, Cause: cause, T: t, Wall: e.wall()})
}

// Lease records a shard lease transition (ops plane): a claim with its
// owner identity and fencing epoch, a steal of an expired lease, or a
// fenced zombie commit. t is the shard's cycle budget on claim, 0
// otherwise. No-op on nil.
func (e *Emitter) Lease(shard, event, owner string, epoch uint64, t uint64) {
	if e == nil {
		return
	}
	_ = e.emit(Record{Kind: KindShard, Shard: shard, Event: event, Owner: owner, Epoch: epoch, T: t, Wall: e.wall()})
}

// Heartbeat records worker liveness while working shard at cycle t (ops
// plane). No-op on nil.
func (e *Emitter) Heartbeat(shard string, t uint64) {
	if e == nil {
		return
	}
	_ = e.emit(Record{Kind: KindHeartbeat, Shard: shard, T: t, Wall: e.wall()})
}

// Point records one deterministic metric sample on the logical-cycle
// axis. Never wall-stamped. No-op on nil.
func (e *Emitter) Point(series string, t uint64, v float64) {
	if e == nil {
		return
	}
	_ = e.emit(Record{Kind: KindPoint, Series: series, T: t, V: v})
}

// SpanBegin opens a deterministic span named name on shard's lane at
// logical cycle start. No-op on nil.
func (e *Emitter) SpanBegin(shard, name string, start uint64) {
	if e == nil {
		return
	}
	_ = e.emit(Record{Kind: KindSpanBegin, Shard: shard, Name: name, Start: start})
}

// SpanEnd closes the span (identified by its shard, name and start) at
// logical cycle end. No-op on nil.
func (e *Emitter) SpanEnd(shard, name string, start, end uint64) {
	if e == nil {
		return
	}
	_ = e.emit(Record{Kind: KindSpanEnd, Shard: shard, Name: name, Start: start, End: end})
}

// Metrics records an ops-plane fleet counter delta: the nonzero
// all-domain totals of snap minus prev (prev may be nil). No-op on nil.
func (e *Emitter) Metrics(snap, prev *obs.Snapshot) {
	if e == nil || snap == nil {
		return
	}
	delta := snap.Sub(prev)
	counters := make(map[string]uint64)
	for c := obs.Counter(0); int(c) < obs.NumCounters; c++ {
		if v := delta.CounterTotal(c); v > 0 {
			counters[c.String()] = v
		}
	}
	if len(counters) == 0 {
		return
	}
	_ = e.emit(Record{Kind: KindMetrics, Counters: counters, Wall: e.wall()})
}

// wall reads the injected clock under the lock.
func (e *Emitter) wall() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now()
}

// Sync flushes buffered records and fsyncs the stream file. The fleet
// pool calls it before each shard checkpoint and on every lifecycle
// event, so the durable stream is never behind the durable manifest.
// No-op on nil.
func (e *Emitter) Sync() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bw == nil {
		return nil
	}
	if err := e.bw.Flush(); err != nil {
		return err
	}
	return e.f.Sync()
}

// Flush writes buffered records to the stream file without an fsync, so
// a live reader (dagtop) sees them. A long-running feeder with no
// checkpoint cadence, like dagauditd, calls it after each batch. No-op
// on nil.
func (e *Emitter) Flush() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bw == nil {
		return nil
	}
	return e.bw.Flush()
}

// Close flushes, fsyncs and closes the stream. No-op on nil.
func (e *Emitter) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bw == nil {
		return nil
	}
	flushErr := e.bw.Flush()
	syncErr := e.f.Sync()
	closeErr := e.f.Close()
	e.bw = nil
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
