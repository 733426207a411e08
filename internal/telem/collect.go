package telem

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dagguise/internal/ckpt"
	"dagguise/internal/obs"
)

// ErrCorruptStream reports a telemetry stream with an invalid line that
// is not the crash-truncated tail — real corruption, never tolerated.
var ErrCorruptStream = errors.New("telem: corrupt stream")

// ErrNoStreams reports a telemetry directory holding no worker streams
// yet — a campaign that has not started, not a broken one.
var ErrNoStreams = errors.New("telem: no streams")

// ErrFingerprintMismatch reports streams from different sweeps in one
// telemetry directory.
var ErrFingerprintMismatch = errors.New("telem: streams belong to different sweeps")

// Span is one stitched deterministic span: a (shard, name, start, end)
// tuple on the campaign's logical-cycle axis. Worker identity is
// deliberately absent — which worker ran a shard is scheduling noise,
// and the stitched trace must not depend on it.
type Span struct {
	Shard string `json:"shard"`
	Name  string `json:"name"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// ShardStatus is the collector's view of one shard's lifecycle, folded
// from every stream (ops plane).
type ShardStatus struct {
	Name   string
	State  string // claim | done | failed (last event wins)
	Worker string // worker that produced the last lifecycle event
	Cause  string
	// Target is the shard's cycle budget (from the claim event); Cycle
	// is its latest observed logical progress.
	Target uint64
	Cycle  uint64
	// Retries and Requeues count ops-plane events seen for the shard.
	Retries  int
	Requeues int
	// Owner and Epoch are the shard's lease identity from the newest
	// claim/steal event (empty on pre-lease streams); Steals and Fenced
	// count lease evictions and refused zombie commits.
	Owner  string
	Epoch  uint64
	Steals int
	Fenced int
	// ClaimWall and EndWall are unix ms of the last claim and the
	// terminal event (0 = still running).
	ClaimWall int64
	EndWall   int64
}

// Worker is the collector's view of one stream.
type Worker struct {
	Name string
	// LastWall is the newest wall stamp in the stream (unix ms): the
	// worker's last proof of life.
	LastWall int64
	// Running is the set of shards the worker has claimed but not
	// finished, sorted.
	Running []string
	// Records counts valid records read from the stream.
	Records int
}

// Collection is the folded state of a telemetry directory: the
// deterministic plane (DB, Spans) feeding Report, and the ops plane
// (Shards, Workers, Ops, Counters) feeding dagtop and the ops-plane rules.
type Collection struct {
	Fingerprint string
	// TotalShards and PoolWorkers come from the campaign record (0 when
	// no fleet driver wrote one).
	TotalShards int
	PoolWorkers int
	// ShardCycles is the per-shard cycle budget from the campaign record.
	ShardCycles uint64
	// DB holds the deterministic series: multi-worker streams merged on
	// the logical-cycle axis, sorted by timestamp, duplicates (from
	// crash/resume replay) collapsed.
	DB *obs.TSDB
	// Spans is the canonical stitched span set, sorted and deduplicated.
	Spans []Span
	// Shards and Workers are the ops-plane lifecycle folds, sorted.
	Shards  []ShardStatus
	Workers []Worker
	// Ops holds collector-computed operational series (shard wall
	// durations); EvalOps adds the straggler/stall/requeue series.
	Ops *obs.TSDB
	// Counters is the summed ops-plane fleet counter deltas.
	Counters map[string]uint64
	// Truncated counts crash-torn tail lines dropped across streams.
	Truncated int

	// lifecycle retains shard events in global wall order for the
	// requeue-rate series.
	lifecycle []Record
}

// Collect reads every telemetry stream in dir (live or post-hoc) and
// folds them into one Collection. Streams may end in a torn line (a
// SIGKILL'd worker); anything worse is ErrCorruptStream.
func Collect(dir string) (*Collection, error) {
	paths, err := filepath.Glob(filepath.Join(dir, StreamPrefix+"*"+StreamSuffix))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w in %s (no %s*%s files)", ErrNoStreams, dir, StreamPrefix, StreamSuffix)
	}
	sort.Strings(paths)
	c := &Collection{
		DB:       obs.NewTSDB(0),
		Ops:      obs.NewTSDB(0),
		Counters: make(map[string]uint64),
	}
	type pointKey struct {
		series string
		t      uint64
	}
	points := make(map[pointKey]float64)
	spanSet := make(map[Span]bool)
	openSpans := make(map[Span]bool) // begin seen, end pending
	shards := make(map[string]*ShardStatus)
	var order []Record // lifecycle events, folded in global wall order
	var beats []Record // heartbeats, applied after the lifecycle fold

	for _, path := range paths {
		w, recs, truncated, err := readStream(path)
		if err != nil {
			return nil, err
		}
		c.Truncated += truncated
		worker := Worker{Name: w.Worker}
		// An empty fingerprint (a standalone auditd stream) joins any
		// sweep; two different non-empty fingerprints never mix.
		if w.Fingerprint != "" {
			if c.Fingerprint == "" {
				c.Fingerprint = w.Fingerprint
			} else if w.Fingerprint != c.Fingerprint {
				return nil, fmt.Errorf("%w: %.12s… vs %.12s… (stream %s)",
					ErrFingerprintMismatch, c.Fingerprint, w.Fingerprint, filepath.Base(path))
			}
		}
		for _, r := range recs {
			worker.Records++
			if r.Wall > worker.LastWall {
				worker.LastWall = r.Wall
			}
			switch r.Kind {
			case KindCampaign:
				c.TotalShards = r.Shards
				c.PoolWorkers = r.Workers
				c.ShardCycles = r.T
			case KindPoint:
				// Last write wins; replayed duplicates carry identical
				// values, so the choice is moot for deterministic data.
				points[pointKey{r.Series, r.T}] = r.V
			case KindSpanBegin:
				openSpans[Span{Shard: r.Shard, Name: r.Name, Start: r.Start}] = true
			case KindSpanEnd:
				sp := Span{Shard: r.Shard, Name: r.Name, Start: r.Start, End: r.End}
				spanSet[sp] = true
				delete(openSpans, Span{Shard: r.Shard, Name: r.Name, Start: r.Start})
			case KindShard:
				r.Worker = w.Worker
				order = append(order, r)
			case KindHeartbeat:
				beats = append(beats, r)
			case KindMetrics:
				for name, v := range r.Counters {
					c.Counters[name] += v
				}
			}
		}
		c.Workers = append(c.Workers, worker)
	}
	sort.Slice(c.Workers, func(i, j int) bool { return c.Workers[i].Name < c.Workers[j].Name })

	// Fold the deterministic points: global (series, t) order, one point
	// per timestamp. obs.TSDB.Append preserves insertion order verbatim
	// (see its contract), so the collector owns sorting and dedup here.
	keys := make([]pointKey, 0, len(points))
	for k := range points {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].series != keys[j].series {
			return keys[i].series < keys[j].series
		}
		return keys[i].t < keys[j].t
	})
	for _, k := range keys {
		c.DB.Append(k.series, k.t, points[k])
	}
	c.appendRollups()

	// Canonical span set: completed spans only (a dangling begin is a
	// crashed attempt, which the resumed run re-emits in full), sorted.
	for sp := range spanSet {
		c.Spans = append(c.Spans, sp)
	}
	sort.Slice(c.Spans, func(i, j int) bool {
		a, b := c.Spans[i], c.Spans[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.Name < b.Name
	})

	// Ops folds. Lifecycle events are applied in global wall order, not
	// stream order: after a kill+resume a shard can migrate between
	// workers, and the dead worker's stale claim must not outvote the
	// resuming worker's done just because its stream sorts later. The
	// stable sort keeps per-stream order for equal stamps.
	sort.SliceStable(order, func(i, j int) bool { return order[i].Wall < order[j].Wall })
	c.lifecycle = order
	for _, r := range order {
		st := shards[r.Shard]
		if st == nil {
			st = &ShardStatus{Name: r.Shard}
			shards[r.Shard] = st
		}
		applyLifecycle(st, r)
	}
	for _, r := range beats {
		if st := shards[r.Shard]; st != nil && r.T > st.Cycle {
			st.Cycle = r.T
		}
	}
	runningBy := make(map[string]map[string]bool)
	for _, st := range shards {
		if st.State == "claim" && st.Worker != "" {
			m := runningBy[st.Worker]
			if m == nil {
				m = make(map[string]bool)
				runningBy[st.Worker] = m
			}
			m[st.Name] = true
		}
	}
	for i := range c.Workers {
		c.Workers[i].Running = sortedKeys(runningBy[c.Workers[i].Name])
	}
	for _, st := range shards {
		c.Shards = append(c.Shards, *st)
	}
	sort.Slice(c.Shards, func(i, j int) bool { return c.Shards[i].Name < c.Shards[j].Name })
	n := uint64(0)
	for _, st := range c.Shards {
		if st.State == "done" && st.EndWall >= st.ClaimWall && st.ClaimWall > 0 {
			c.Ops.Append("shard_wall_ms/"+st.Name, n, float64(st.EndWall-st.ClaimWall))
			n++
		}
	}
	return c, nil
}

// applyLifecycle folds one shard event into its status.
func applyLifecycle(st *ShardStatus, r Record) {
	switch r.Event {
	case EventClaim:
		st.State = "claim"
		st.Worker = r.Worker
		st.ClaimWall = r.Wall
		st.EndWall = 0
		if r.T > 0 {
			st.Target = r.T
		}
		if r.Owner != "" {
			st.Owner = r.Owner
			st.Epoch = r.Epoch
		}
	case EventSteal:
		st.Steals++
		st.State = "claim"
		st.Worker = r.Worker
		st.ClaimWall = r.Wall
		st.EndWall = 0
		st.Owner = r.Owner
		st.Epoch = r.Epoch
	case EventFenced:
		st.Fenced++
	case EventRetry:
		st.Retries++
		st.Cause = r.Cause
	case EventRequeue:
		st.Requeues++
		if st.State == "claim" {
			st.State = ""
			st.Worker = ""
		}
	case EventDone:
		st.State = "done"
		st.Worker = r.Worker
		st.EndWall = r.Wall
		if r.T > st.Cycle {
			st.Cycle = r.T
		}
	case EventFailed:
		st.State = "failed"
		st.Worker = r.Worker
		st.Cause = r.Cause
		st.EndWall = r.Wall
	}
}

// appendRollups computes fleet-level deterministic series from the
// merged per-shard ones: leak_rate/<scheme> is the mean of the final
// leak/<scheme>/<shard> indicators, the series the
// fleet-leak-budget-burn rule watches.
func (c *Collection) appendRollups() {
	type agg struct {
		sum  float64
		n    int
		maxT uint64
	}
	schemes := make(map[string]*agg)
	for _, name := range c.DB.Names() {
		rest, ok := strings.CutPrefix(name, "leak/")
		if !ok {
			continue
		}
		scheme, _, ok := strings.Cut(rest, "/")
		if !ok {
			continue
		}
		p, ok := c.DB.Last(name)
		if !ok {
			continue
		}
		a := schemes[scheme]
		if a == nil {
			a = &agg{}
			schemes[scheme] = a
		}
		a.sum += p.V
		a.n++
		if p.T > a.maxT {
			a.maxT = p.T
		}
	}
	for _, scheme := range sortedAggKeys(schemes) {
		a := schemes[scheme]
		c.DB.Append("leak_rate/"+scheme, a.maxT, a.sum/float64(a.n))
	}
}

func sortedAggKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	return sortedAggKeys(m)
}

// streamHello is the identifying first record of a stream.
type streamHello struct {
	Worker      string
	Fingerprint string
}

// readStream parses one stream file: its hello, its valid records, and
// how many torn tail lines were dropped.
func readStream(path string) (streamHello, []Record, int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return streamHello{}, nil, 0, err
		}
		return streamHello{}, nil, 0, err
	}
	defer f.Close()
	var hello streamHello
	var recs []Record
	truncated := 0
	br := bufio.NewReaderSize(f, 1<<16)
	lineNo := 0
	for {
		line, err := br.ReadBytes('\n')
		atEOF := errors.Is(err, io.EOF)
		if err != nil && !atEOF {
			return hello, nil, 0, err
		}
		if len(line) == 0 && atEOF {
			break
		}
		lineNo++
		torn := atEOF && !bytes.HasSuffix(line, []byte("\n"))
		payload, perr := ckpt.UnframeLine(line)
		if perr == nil {
			var r Record
			if r, perr = decode(payload); perr == nil {
				perr = r.Validate()
				if perr == nil {
					if r.Kind == KindHello {
						hello.Worker = r.Worker
						if r.Fingerprint != "" {
							hello.Fingerprint = r.Fingerprint
						}
					} else {
						recs = append(recs, r)
					}
				}
			}
		}
		if perr != nil {
			if torn {
				truncated++
				break
			}
			return hello, nil, 0, fmt.Errorf("%w: %s line %d: %v", ErrCorruptStream, filepath.Base(path), lineNo, perr)
		}
		if atEOF {
			break
		}
	}
	if hello.Worker == "" {
		return hello, nil, 0, fmt.Errorf("%w: %s has no hello record", ErrCorruptStream, filepath.Base(path))
	}
	return hello, recs, truncated, nil
}

// Counts returns the ops-plane shard state tallies. Pending is derived
// from the campaign record's total when one was seen.
func (c *Collection) Counts() (pending, running, done, failed int) {
	for _, st := range c.Shards {
		switch st.State {
		case "claim":
			running++
		case "done":
			done++
		case "failed":
			failed++
		default:
			pending++
		}
	}
	if c.TotalShards > len(c.Shards) {
		pending += c.TotalShards - len(c.Shards)
	}
	return
}
