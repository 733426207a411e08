package telem

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dagguise/internal/obs"
)

// fixedClock returns an injectable wall clock starting at base that
// advances stepMs per reading.
func fixedClock(base, stepMs int64) func() int64 {
	t := base - stepMs
	return func() int64 {
		t += stepMs
		return t
	}
}

func openTestEmitter(t *testing.T, dir, worker, fp string, clock func() int64) *Emitter {
	t.Helper()
	e, err := OpenEmitter(dir, worker, fp)
	if err != nil {
		t.Fatal(err)
	}
	if clock != nil {
		e.SetClock(clock)
	}
	return e
}

func TestEmitterCollectRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := openTestEmitter(t, dir, "0", "fp-round", fixedClock(1000, 10))
	e.Campaign(4, 2, 6000)
	e.Shard("s0", EventClaim, "", 6000)
	e.Heartbeat("s0", 3000)
	e.Point("completed/s0", 3000, 17)
	e.SpanBegin("s0", "chunk", 0)
	e.SpanEnd("s0", "chunk", 0, 3000)
	e.Shard("s0", EventDone, "", 6000)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := Collect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint != "fp-round" {
		t.Fatalf("fingerprint %q", c.Fingerprint)
	}
	if c.TotalShards != 4 || c.PoolWorkers != 2 || c.ShardCycles != 6000 {
		t.Fatalf("campaign fold: %+v", c)
	}
	if len(c.Workers) != 1 || c.Workers[0].Name != "0" {
		t.Fatalf("workers: %+v", c.Workers)
	}
	if c.Workers[0].LastWall == 0 {
		t.Fatal("ops records should stamp LastWall")
	}
	if len(c.Shards) != 1 || c.Shards[0].State != "done" || c.Shards[0].Target != 6000 {
		t.Fatalf("shards: %+v", c.Shards)
	}
	if got := c.Shards[0].Cycle; got != 6000 {
		t.Fatalf("done event should lift Cycle to 6000, got %d", got)
	}
	p, ok := c.DB.Last("completed/s0")
	if !ok || p.T != 3000 || p.V != 17 {
		t.Fatalf("point fold: %+v ok=%v", p, ok)
	}
	want := Span{Shard: "s0", Name: "chunk", Start: 0, End: 3000}
	if len(c.Spans) != 1 || c.Spans[0] != want {
		t.Fatalf("spans: %+v", c.Spans)
	}
	pending, running, done, failed := c.Counts()
	if pending != 3 || running != 0 || done != 1 || failed != 0 {
		t.Fatalf("counts: %d/%d/%d/%d", pending, running, done, failed)
	}
}

func TestEmitterRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	e := openTestEmitter(t, dir, "0", "fp", nil)
	e.Point("a", 1, 1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, StreamName("0"))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a torn unterminated line.
	if err := os.WriteFile(path, append(whole, []byte("DAGT1 0123456789abcdef {\"k\":\"pt\",\"ser")...), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopening repairs the tail; the stream stays collectible and the
	// valid prefix survives untouched.
	e2 := openTestEmitter(t, dir, "0", "fp", nil)
	e2.Point("b", 2, 2)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, whole) {
		t.Fatal("repair rewrote valid prefix lines")
	}
	c, err := Collect(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"a", "b"} {
		if _, ok := c.DB.Last(s); !ok {
			t.Fatalf("series %q missing after repair", s)
		}
	}
}

func TestEmitterRefusesMidStreamCorruption(t *testing.T) {
	dir := t.TempDir()
	e := openTestEmitter(t, dir, "0", "fp", nil)
	e.Point("a", 1, 1)
	e.Point("b", 2, 2)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, StreamName("0"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the stream (first line's payload):
	// a corrupt line followed by valid lines is never a torn tail.
	idx := bytes.IndexByte(data, '{')
	data[idx+1] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEmitter(dir, "0", "fp"); err == nil {
		t.Fatal("emitter opened a mid-stream-corrupt file")
	}
	if _, err := Collect(dir); !errors.Is(err, ErrCorruptStream) {
		t.Fatalf("Collect: got %v, want ErrCorruptStream", err)
	}
}

func TestCollectToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	e := openTestEmitter(t, dir, "0", "fp", nil)
	e.Point("a", 1, 1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, StreamName("0"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Collect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", c.Truncated)
	}
	if _, ok := c.DB.Last("a"); ok {
		t.Fatal("torn final line should be dropped, not ingested")
	}
}

func TestCollectFingerprintRules(t *testing.T) {
	dir := t.TempDir()
	openTestEmitter(t, dir, "0", "fp-A", nil).Close()
	// An empty fingerprint (a standalone auditd stream) joins any sweep.
	openTestEmitter(t, dir, "auditd", "", nil).Close()
	c, err := Collect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint != "fp-A" {
		t.Fatalf("fingerprint %q, want fp-A", c.Fingerprint)
	}
	// Two different non-empty fingerprints never mix.
	openTestEmitter(t, dir, "1", "fp-B", nil).Close()
	if _, err := Collect(dir); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("got %v, want ErrFingerprintMismatch", err)
	}
}

// emitShardRun writes the deterministic plane of one finished shard.
func emitShardRun(e *Emitter, shard, scheme string, cycles uint64, leak float64) {
	e.SpanBegin(shard, "chunk", 0)
	e.SpanEnd(shard, "chunk", 0, cycles/2)
	e.SpanBegin(shard, "chunk", cycles/2)
	e.SpanEnd(shard, "chunk", cycles/2, cycles)
	e.Point("completed/"+shard, cycles/2, 10)
	e.Point("completed/"+shard, cycles, 20)
	e.SpanBegin(shard, "shard:"+shard, 0)
	e.SpanEnd(shard, "shard:"+shard, 0, cycles)
	e.Point("leak/"+scheme+"/"+shard, cycles, leak)
}

// TestReportWorkerSplitInvariant pins the tentpole invariant at the
// package level: the deterministic report is byte-identical whether the
// records landed in one stream, were split across two workers, or were
// duplicated by a crash/resume replay.
func TestReportWorkerSplitInvariant(t *testing.T) {
	encode := func(write func(dir string)) []byte {
		dir := t.TempDir()
		write(dir)
		c, err := Collect(dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Report(nil)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	solo := encode(func(dir string) {
		e := openTestEmitter(t, dir, "0", "fp", fixedClock(1000, 7))
		emitShardRun(e, "s0", "dagguise", 4000, 0)
		emitShardRun(e, "s1", "insecure", 4000, 1)
		e.Close()
	})
	split := encode(func(dir string) {
		a := openTestEmitter(t, dir, "0", "fp", fixedClock(5000, 3))
		emitShardRun(a, "s1", "insecure", 4000, 1)
		a.Close()
		b := openTestEmitter(t, dir, "1", "fp", fixedClock(9000, 11))
		emitShardRun(b, "s0", "dagguise", 4000, 0)
		b.Close()
	})
	replayed := encode(func(dir string) {
		a := openTestEmitter(t, dir, "0", "fp", nil)
		emitShardRun(a, "s0", "dagguise", 4000, 0)
		// Crash/resume replays the first chunk verbatim on another worker.
		a.Close()
		b := openTestEmitter(t, dir, "1", "fp", nil)
		b.SpanBegin("s0", "chunk", 0)
		b.SpanEnd("s0", "chunk", 0, 2000)
		b.Point("completed/s0", 2000, 10)
		// A dangling begin (crashed attempt) must not become a span.
		b.SpanBegin("s1", "attempt", 100)
		emitShardRun(b, "s1", "insecure", 4000, 1)
		b.Close()
	})

	if !bytes.Equal(solo, split) {
		t.Fatalf("report depends on worker split:\n--- solo ---\n%s\n--- split ---\n%s", solo, split)
	}
	if !bytes.Equal(solo, replayed) {
		t.Fatalf("report depends on replay:\n--- solo ---\n%s\n--- replayed ---\n%s", solo, replayed)
	}
}

func TestReportLeakRollupFiresDetRule(t *testing.T) {
	dir := t.TempDir()
	e := openTestEmitter(t, dir, "0", "fp", nil)
	emitShardRun(e, "s0", "insecure", 1000, 1)
	emitShardRun(e, "s1", "insecure", 1000, 1)
	emitShardRun(e, "s2", "dagguise", 1000, 0)
	e.Close()

	c, err := Collect(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Report(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := c.DB.Last("leak_rate/insecure"); !ok || p.V != 1 {
		t.Fatalf("leak_rate/insecure rollup: %+v ok=%v", p, ok)
	}
	if p, ok := c.DB.Last("leak_rate/dagguise"); !ok || p.V != 0 {
		t.Fatalf("leak_rate/dagguise rollup: %+v ok=%v", p, ok)
	}
	var fired *obs.Alert
	for i := range rep.Alerts {
		if rep.Alerts[i].Rule == "fleet-leak-budget-burn" && rep.Alerts[i].Series == "leak_rate/insecure" {
			fired = &rep.Alerts[i]
		}
	}
	if fired == nil {
		t.Fatalf("fleet-leak-budget-burn did not fire; alerts: %+v", rep.Alerts)
	}
	if fired.State != "firing" || fired.Severity != obs.SeverityCritical {
		t.Fatalf("alert edge: %+v", fired)
	}
	for _, a := range rep.Alerts {
		if a.Series == "leak_rate/dagguise" {
			t.Fatalf("clean scheme fired: %+v", a)
		}
	}
	if rep.TraceDigest == "" || rep.Fingerprint != "fp" {
		t.Fatalf("report header: %+v", rep)
	}
}

// TestOpsRulesFire drives the straggler, worker-stall and requeue-rate
// rules to a firing edge with synthetic streams and an injected clock —
// the acceptance demonstration that the fleet rules actually alert.
func TestOpsRulesFire(t *testing.T) {
	dir := t.TempDir()
	// Worker 0: four shards done quickly (the median pace), then goes
	// silent while still holding a claimed shard -> worker-stall.
	e0 := openTestEmitter(t, dir, "0", "fp", fixedClock(10_000, 1000))
	for _, sh := range []string{"d0", "d1", "d2", "d3"} {
		e0.Shard(sh, EventClaim, "", 100) // wall advances 1s per event
		e0.Shard(sh, EventDone, "", 100)
	}
	e0.Shard("slow", EventClaim, "", 100)
	e0.Close()

	// Worker 1: claim/requeue churn -> requeue-rate burn.
	e1 := openTestEmitter(t, dir, "1", "fp", fixedClock(40_000, 1000))
	for i := 0; i < 4; i++ {
		e1.Shard("flappy", EventClaim, "", 100)
		e1.Shard("flappy", EventRequeue, "", 0)
	}
	e1.Shard("flappy", EventDone, "", 100)
	e1.Close()

	c, err := Collect(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Wall now: far past the claims, so "slow" has been running ~50x the
	// 1s median shard duration and worker 0's last heartbeat is stale.
	now := int64(64_000)
	alerts, rank := c.EvalOps(now, nil)

	want := map[string]string{ // rule -> series
		"straggler":    "straggler/slow",
		"worker-stall": "worker_stall/0",
		"requeue-rate": "requeue_rate",
	}
	got := make(map[string]obs.Alert)
	for _, a := range alerts {
		got[a.Rule] = a
	}
	for rule, series := range want {
		a, ok := got[rule]
		if !ok {
			t.Fatalf("rule %s did not fire; alerts: %+v", rule, alerts)
		}
		if a.Series != series || a.State != "firing" {
			t.Fatalf("rule %s: %+v, want series %s firing", rule, a, series)
		}
	}
	if got["worker-stall"].Severity != obs.SeverityCritical {
		t.Fatalf("worker-stall severity: %+v", got["worker-stall"])
	}

	if len(rank) == 0 || rank[0].Shard != "slow" || rank[0].Worker != "0" {
		t.Fatalf("straggler ranking: %+v", rank)
	}
	if rank[0].Ratio < 3 {
		t.Fatalf("straggler ratio %.2f should be past the 3x threshold", rank[0].Ratio)
	}

	// Repeated evaluation (the dagtop refresh loop) must not
	// double-count: a fresh engine re-reports the same firing edges.
	again, _ := c.EvalOps(now, nil)
	if len(again) != len(alerts) {
		t.Fatalf("EvalOps is not idempotent: %d then %d edges", len(alerts), len(again))
	}

	if ms, ok := c.ETA(); !ok || ms <= 0 {
		t.Fatalf("ETA with done history and pending work: %d ok=%v", ms, ok)
	}
}

func TestStreamNameSanitize(t *testing.T) {
	cases := map[string]string{
		"0":        "telem-worker-0.ndjson",
		"auditd":   "telem-worker-auditd.ndjson",
		"":         "telem-worker-anon.ndjson",
		"a/b c":    "telem-worker-a_b_c.ndjson",
		"W.1-x_9":  "telem-worker-W.1-x_9.ndjson",
		"über/sûr": "telem-worker-_ber_s_r.ndjson",
	}
	for in, want := range cases {
		if got := StreamName(in); got != want {
			t.Errorf("StreamName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNilEmitterIsNoOp(t *testing.T) {
	var e *Emitter
	e.SetClock(func() int64 { return 0 })
	e.Campaign(1, 1, 1)
	e.Shard("s", EventClaim, "", 1)
	e.Heartbeat("s", 1)
	e.Point("x", 1, 1)
	e.SpanBegin("s", "n", 0)
	e.SpanEnd("s", "n", 0, 1)
	e.Metrics(nil, nil)
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsDelta(t *testing.T) {
	dir := t.TempDir()
	e := openTestEmitter(t, dir, "fleet", "fp", fixedClock(1, 1))
	mx := obs.NewRegistry(1)
	mx.Inc(obs.CtrFleetShardsDone, 0)
	mx.Inc(obs.CtrFleetShardsDone, 0)
	snap1 := mx.Snapshot()
	e.Metrics(snap1, nil)
	mx.Inc(obs.CtrFleetShardsDone, 0)
	e.Metrics(mx.Snapshot(), snap1)
	e.Metrics(mx.Snapshot(), mx.Snapshot()) // zero delta: no record
	e.Close()

	c, err := Collect(dir)
	if err != nil {
		t.Fatal(err)
	}
	name := obs.CtrFleetShardsDone.String()
	if c.Counters[name] != 3 {
		t.Fatalf("summed counter delta = %d, want 3 (%+v)", c.Counters[name], c.Counters)
	}
	if c.Workers[0].Records != 2 {
		t.Fatalf("zero delta should emit nothing: %d records", c.Workers[0].Records)
	}
}

func TestCollectEmptyDir(t *testing.T) {
	if _, err := Collect(t.TempDir()); !errors.Is(err, ErrNoStreams) {
		t.Fatalf("got %v, want a no-streams error", err)
	}
}
