package auditd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"dagguise/internal/audit"
	"dagguise/internal/ckpt"
)

// testCfg is a small, fast service configuration.
func testCfg() Config {
	ac := audit.DefaultConfig()
	ac.Window = 20
	ac.Permutations = 40
	ac.Bootstrap = 40
	return Config{Audit: ac, Shards: 2, QueueDepth: 8}
}

// genObs builds a deterministic observation stream for one tenant:
// n pairs of (secret 0, secret 1) samples with dense seq from 0 and the
// given per-class value offsets (equal offsets = clean, far apart =
// leaky).
func genObs(tenant string, n int, seed int64, off0, off1 uint64) []Observation {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]Observation, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out,
			Observation{Tenant: tenant, Seq: uint64(2 * i), Secret: 0, Cycle: uint64(10 * i), Value: off0 + uint64(rnd.Intn(16))},
			Observation{Tenant: tenant, Seq: uint64(2*i + 1), Secret: 1, Cycle: uint64(10*i + 5), Value: off1 + uint64(rnd.Intn(16))},
		)
	}
	return out
}

// startServer wires a Service to an httptest server and a client.
func startServer(t *testing.T, cfg Config) (*Service, *httptest.Server, *Client) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = svc.Close(context.Background())
	})
	c := &Client{Base: ts.URL, HTTP: ts.Client(), BatchSize: 20, Seed: 1,
		Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	return svc, ts, c
}

func mustStream(t *testing.T, c *Client, obs []Observation) StreamResult {
	t.Helper()
	res, err := c.Stream(context.Background(), obs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestVerdictsLeakyVsClean drives a leaky and a clean tenant end to end
// over HTTP and checks the service reproduces the batch auditor's
// judgement for each independently.
func TestVerdictsLeakyVsClean(t *testing.T) {
	_, _, c := startServer(t, testCfg())
	leaky := genObs("leaky", 60, 7, 100, 400)
	clean := genObs("clean", 60, 8, 100, 100)
	res := mustStream(t, c, append(append([]Observation{}, leaky...), clean...))
	if res.Accepted != len(leaky)+len(clean) {
		t.Fatalf("accepted %d of %d", res.Accepted, len(leaky)+len(clean))
	}
	_, vr, err := c.Verdicts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(vr.Tenants) != 2 {
		t.Fatalf("want 2 tenants, got %d", len(vr.Tenants))
	}
	byName := map[string]TenantVerdict{}
	for _, v := range vr.Tenants {
		byName[v.Tenant] = v
	}
	if v := byName["leaky"]; v.WithinBudget || v.Tripped == 0 {
		t.Errorf("leaky tenant not flagged: %+v", v)
	}
	if v := byName["clean"]; !v.WithinBudget || v.Tripped != 0 {
		t.Errorf("clean tenant flagged: %+v", v)
	}
	// Verdicts are sorted by tenant name for deterministic output.
	if vr.Tenants[0].Tenant != "clean" || vr.Tenants[1].Tenant != "leaky" {
		t.Errorf("verdicts not name-sorted: %s, %s", vr.Tenants[0].Tenant, vr.Tenants[1].Tenant)
	}
}

// postBody posts raw NDJSON and decodes the IngestResult.
func postBody(t *testing.T, ts *httptest.Server, body string) (int, IngestResult) {
	t.Helper()
	return postReader(t, ts, strings.NewReader(body))
}

// postReader posts an NDJSON body read from r and decodes the
// IngestResult.
func postReader(t *testing.T, ts *httptest.Server, r io.Reader) (int, IngestResult) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/x-ndjson", r)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res IngestResult
	_ = json.NewDecoder(resp.Body).Decode(&res)
	return resp.StatusCode, res
}

// TestIngestProtocol pins the wire protocol's failure semantics:
// duplicates acknowledged, gaps rejected with the expected cursor,
// malformed lines rejected atomically.
func TestIngestProtocol(t *testing.T) {
	_, ts, _ := startServer(t, testCfg())
	line := func(seq int, secret int) string {
		return fmt.Sprintf(`{"tenant":"t","seq":%d,"secret":%d,"cycle":%d,"value":100}`+"\n", seq, secret, seq)
	}

	code, res := postBody(t, ts, line(0, 0)+line(1, 1))
	if code != http.StatusOK || res.Accepted != 2 {
		t.Fatalf("initial ingest: code %d res %+v", code, res)
	}
	// Full retransmission: acknowledged as duplicates, cursor unmoved.
	code, res = postBody(t, ts, line(0, 0)+line(1, 1))
	if code != http.StatusOK || res.Accepted != 0 || res.Duplicates != 2 || res.NextSeq["t"] != 2 {
		t.Fatalf("duplicate ingest: code %d res %+v", code, res)
	}
	// Gap: rejected with the expected sequence so the client can rewind.
	code, res = postBody(t, ts, line(5, 0))
	if code != http.StatusConflict || res.Expected == nil || *res.Expected != 2 {
		t.Fatalf("gap ingest: code %d res %+v", code, res)
	}
	// Mixed batch past a gap is cut at the gap, nothing after applies.
	code, res = postBody(t, ts, line(2, 0)+line(4, 0))
	if code != http.StatusConflict || res.Accepted != 1 || *res.Expected != 3 {
		t.Fatalf("mixed gap ingest: code %d res %+v", code, res)
	}

	for name, body := range map[string]string{
		"not json":      "this is not json\n",
		"unknown field": `{"tenant":"t","seq":3,"secret":1,"cycle":9,"value":1,"extra":true}` + "\n",
		"bad secret":    `{"tenant":"t","seq":3,"secret":2,"cycle":9,"value":1}` + "\n",
		"empty tenant":  `{"tenant":"","seq":3,"secret":0,"cycle":9,"value":1}` + "\n",
		"long line":     `{"tenant":"t","seq":3,"secret":0,"cycle":9,"value":1,"pad":"` + strings.Repeat("x", 5000) + `"}` + "\n",
		// Two whole lines, then one cut off mid-object as a crashed
		// client leaves it: the valid prefix must not apply either.
		"truncated batch": line(3, 1) + line(4, 0) + `{"tenant":"t","seq":5,"sec`,
	} {
		if code, res = postBody(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: code %d res %+v, want 400", name, code, res)
		}
	}
	// The malformed batches changed nothing: the cursor is where the last
	// accepted observation left it.
	code, res = postBody(t, ts, line(3, 1))
	if code != http.StatusOK || res.Accepted != 1 {
		t.Fatalf("post-reject ingest: code %d res %+v", code, res)
	}
}

// TestBackpressureSheds wedges the single shard behind a blocking hook and
// verifies that once its bounded queue fills, further ingest sheds with
// 429 + Retry-After instead of blocking or buffering, and /readyz turns
// unready.
func TestBackpressureSheds(t *testing.T) {
	cfg := testCfg()
	cfg.Shards = 1
	cfg.QueueDepth = 1
	cfg.RetryAfterSeconds = 3
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg.Hook = func(tenant string, o Observation) {
		if tenant == "wedge" && o.Seq == 0 {
			once.Do(func() { close(entered) })
			<-release
		}
	}
	svc, ts, c := startServer(t, cfg)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	line := func(tenant string, seq int) string {
		return fmt.Sprintf(`{"tenant":%q,"seq":%d,"secret":0,"cycle":1,"value":1}`+"\n", tenant, seq)
	}
	done := make(chan int, 2)
	go func() { // occupies the shard worker (hook blocks inside)
		code, _ := postBody(t, ts, line("wedge", 0))
		done <- code
	}()
	<-entered
	go func() { // sits in the depth-1 queue
		code, _ := postBody(t, ts, line("queued", 0))
		done <- code
	}()
	for i := 0; len(svc.shards[0]) == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if len(svc.shards[0]) != 1 {
		t.Fatal("queue never filled")
	}

	// Queue full: this request must be shed immediately.
	resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(line("shedme", 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want 3", ra)
	}
	if rz, err := ts.Client().Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		rz.Body.Close()
		if rz.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("overloaded /readyz = %d, want 503", rz.StatusCode)
		}
	}
	queueLen := func(want int) {
		t.Helper()
		m, err := c.get(context.Background(), "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if line := fmt.Sprintf("dagauditd_shard_queue_len{shard=\"0\"} %d\n", want); !bytes.Contains(m, []byte(line)) {
			t.Errorf("/metrics lacks %q:\n%s", line, m)
		}
	}
	queueLen(1) // the depth-1 queue is full

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("wedged/queued request finished %d, want 200", code)
		}
	}
	queueLen(0)
	if svc.ctr.shed.Load() == 0 {
		t.Error("shed counter not incremented")
	}
}

// TestPanicQuarantineIsolation injects a panic into one tenant's pipeline
// and verifies the blast radius: that tenant quarantines (422, verdict
// flagged) while the other tenant and the service keep working.
func TestPanicQuarantineIsolation(t *testing.T) {
	cfg := testCfg()
	cfg.Hook = func(tenant string, o Observation) {
		if tenant == "poison" && o.Seq == 3 {
			panic("injected: poisoned stream")
		}
	}
	svc, ts, c := startServer(t, cfg)

	line := func(tenant string, seq int) string {
		return fmt.Sprintf(`{"tenant":%q,"seq":%d,"secret":%d,"cycle":%d,"value":100}`+"\n", tenant, seq, seq%2, seq)
	}
	var poison strings.Builder
	for i := 0; i < 6; i++ {
		poison.WriteString(line("poison", i))
	}
	code, res := postBody(t, ts, poison.String())
	if code != http.StatusUnprocessableEntity || !strings.Contains(res.Error, "injected") {
		t.Fatalf("poisoned ingest: code %d res %+v", code, res)
	}
	// Further traffic to the quarantined tenant is refused, not crashed.
	if code, _ = postBody(t, ts, line("poison", 6)); code != http.StatusUnprocessableEntity {
		t.Fatalf("post-quarantine ingest: code %d, want 422", code)
	}
	// A healthy tenant is untouched.
	mustStream(t, c, genObs("healthy", 30, 3, 100, 100))
	v, ok := svc.Verdict("poison")
	if !ok || !v.Quarantined || !strings.Contains(v.QuarantineReason, "injected") {
		t.Errorf("poison verdict: %+v", v)
	}
	if v, _ := svc.Verdict("healthy"); v.Quarantined || v.Accepted != 60 {
		t.Errorf("healthy verdict: %+v", v)
	}
	if svc.ctr.panics.Load() != 1 {
		t.Errorf("panics counter = %d, want 1", svc.ctr.panics.Load())
	}
}

// verdictBytes fetches the raw verdict JSON.
func verdictBytes(t *testing.T, c *Client) []byte {
	t.Helper()
	raw, _, err := c.Verdicts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDegradationDeterministic floods a tenant past DegradeAfter and
// verifies (a) the service degrades to sampling instead of auditing the
// full flood, and (b) the surviving verdict is a pure function of the
// stream — identical across different batch sizes and a mid-stream full
// replay.
func TestDegradationDeterministic(t *testing.T) {
	cfg := testCfg()
	cfg.DegradeAfter = 40
	cfg.SampleKeep = 2
	obs := genObs("flood", 100, 11, 100, 400)

	_, _, c1 := startServer(t, cfg)
	c1.BatchSize = 16
	mustStream(t, c1, obs)
	raw1 := verdictBytes(t, c1)

	_, _, c2 := startServer(t, cfg)
	c2.BatchSize = 64
	mustStream(t, c2, obs[:120])
	mustStream(t, c2, obs) // full replay: first 120 dup-acked
	raw2 := verdictBytes(t, c2)

	if !bytes.Equal(raw1, raw2) {
		t.Errorf("degraded verdicts differ across batching/replay:\n%s\nvs\n%s", raw1, raw2)
	}
	var vr VerdictsResponse
	if err := json.Unmarshal(raw1, &vr); err != nil {
		t.Fatal(err)
	}
	v := vr.Tenants[0]
	if !v.Degraded || v.Sampled == 0 {
		t.Errorf("tenant did not degrade: %+v", v)
	}
	if v.Accepted != 200 {
		t.Errorf("accepted %d, want 200 (degradation must not drop acceptance)", v.Accepted)
	}
}

// killForTest stops the service's goroutines without the final checkpoint
// Close would write — the in-process stand-in for SIGKILL.
func (s *Service) killForTest() {
	s.closeOnce.Do(func() {
		s.ready.Store(false)
		s.accepting.Store(false)
		s.handlerWG.Wait()
		for _, sh := range s.shards {
			close(sh)
		}
		s.shardWG.Wait()
	})
}

// TestCrashRecoveryByteIdenticalVerdicts is the headline robustness
// property: checkpoint mid-stream, lose the un-checkpointed tail to a
// simulated SIGKILL, restore, blindly replay the full stream, and the
// final verdict JSON is byte-identical to an uninterrupted run.
func TestCrashRecoveryByteIdenticalVerdicts(t *testing.T) {
	leaky := genObs("leaky", 75, 21, 100, 400)
	clean := genObs("clean", 75, 22, 100, 100)
	all := append(append([]Observation{}, leaky...), clean...)

	finish := func(c *Client) []byte {
		for _, tenant := range []string{"clean", "leaky"} {
			if _, err := c.Flush(context.Background(), tenant); err != nil {
				t.Fatal(err)
			}
		}
		return verdictBytes(t, c)
	}

	// Reference: one uninterrupted run.
	_, _, ref := startServer(t, testCfg())
	mustStream(t, ref, all)
	want := finish(ref)

	// Crashing run: manual checkpoints only, so the tail after the last
	// checkpoint is genuinely lost state.
	dir := t.TempDir()
	cfg := testCfg()
	cfg.CheckpointPath = filepath.Join(dir, "auditd.ckpt")

	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())
	c1 := &Client{Base: ts1.URL, HTTP: ts1.Client(), BatchSize: 20, Seed: 1,
		Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	mustStream(t, c1, all[:100])
	if err := svc1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustStream(t, c1, all[100:220]) // tail beyond the checkpoint: will be lost
	ts1.Close()
	svc1.killForTest()

	// Recovery: restore from the checkpoint, then the client replays the
	// whole stream; the 100 checkpointed observations dup-ack, the rest
	// (including the lost tail) apply fresh.
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	defer func() {
		ts2.Close()
		_ = svc2.Close(context.Background())
	}()
	c2 := &Client{Base: ts2.URL, HTTP: ts2.Client(), BatchSize: 20, Seed: 1,
		Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	res := mustStream(t, c2, all)
	if res.Duplicates == 0 {
		t.Error("replay produced no duplicates: checkpoint restored nothing")
	}
	got := finish(c2)

	if !bytes.Equal(want, got) {
		t.Errorf("resumed verdicts differ from uninterrupted run:\n%s\nvs\n%s", want, got)
	}
}

// TestStarvedTenantFlush exercises satellite 1 through the service: a
// tenant whose stream never yields two samples per class flushes to the
// typed starvation outcome instead of a fabricated verdict.
func TestStarvedTenantFlush(t *testing.T) {
	svc, _, c := startServer(t, testCfg())
	obs := []Observation{
		{Tenant: "starved", Seq: 0, Secret: 0, Cycle: 1, Value: 100},
		{Tenant: "starved", Seq: 1, Secret: 0, Cycle: 2, Value: 101},
		{Tenant: "starved", Seq: 2, Secret: 1, Cycle: 3, Value: 102},
	}
	mustStream(t, c, obs)
	starved, err := c.Flush(context.Background(), "starved")
	if err != nil {
		t.Fatal(err)
	}
	if !starved {
		t.Fatal("flush of one-sided stream did not report starvation")
	}
	v, _ := svc.Verdict("starved")
	if !v.Flushed || v.FlushError == "" || v.Windows != 0 {
		t.Errorf("starved verdict: %+v", v)
	}
	// Unknown tenant flushes are 404, not 500.
	if _, err := c.Flush(context.Background(), "nobody"); err == nil {
		t.Error("flush of unknown tenant succeeded")
	}
}

// TestCheckpointCorruptionRejected verifies a damaged checkpoint fails
// restore loudly instead of silently serving wrong verdicts.
func TestCheckpointCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg()
	cfg.CheckpointPath = filepath.Join(dir, "auditd.ckpt")

	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	c := &Client{Base: ts.URL, HTTP: ts.Client(), BatchSize: 20}
	mustStream(t, c, genObs("t", 30, 5, 100, 400))
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	_ = svc.Close(context.Background())

	blob, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"bit flip":  func(b []byte) []byte { b = append([]byte{}, b...); b[len(b)/2] ^= 0x40; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"garbage":   func([]byte) []byte { return []byte("not a checkpoint") },
	} {
		if err := os.WriteFile(cfg.CheckpointPath, mutate(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted a corrupt checkpoint", name)
		}
	}

	// An intact frame whose payload carries a field this build does not
	// know is refused as corrupt instead of restoring part of the state.
	// That includes the time-series store a checkpoint written with the
	// retired alerting pipeline on still holds.
	payload, err := ckpt.Unframe(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"unknown_field":1`,
		`"tsdb":{"cap":4096,"series":[{"name":"leak_burn/t","points":[{"t":0,"v":1}]}]}`,
	} {
		unknown := append([]byte("{"+field+","), payload[1:]...)
		if err := ckpt.SaveFrame(cfg.CheckpointPath, unknown); err != nil {
			t.Fatal(err)
		}
		if _, err := New(cfg); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("payload field %s: New returned %v, want ckpt.ErrCorrupt", field, err)
		}
	}
}

// TestMaxTenantsRefused pins the registry bound: tenant MaxTenants+1 is
// refused with a terminal 403, not a retryable shed.
func TestMaxTenantsRefused(t *testing.T) {
	cfg := testCfg()
	cfg.MaxTenants = 2
	_, ts, _ := startServer(t, cfg)
	for i, want := range []int{http.StatusOK, http.StatusOK, http.StatusForbidden} {
		body := fmt.Sprintf(`{"tenant":"t%d","seq":0,"secret":0,"cycle":1,"value":1}`+"\n", i)
		if code, res := postBody(t, ts, body); code != want {
			t.Fatalf("tenant %d: code %d res %+v, want %d", i, code, res, want)
		}
	}
}

// TestSlowAndStalledBodies pins the ingest read path on a server with
// read timeouts: a body delivered one byte per read is accepted whole, a
// body that never arrives times out without applying anything, and the
// stream then converges on a calm run's verdict bytes.
func TestSlowAndStalledBodies(t *testing.T) {
	obs := genObs("slow", 60, 31, 100, 400)

	_, _, calm := startServer(t, testCfg())
	mustStream(t, calm, obs)
	want := verdictBytes(t, calm)

	svc, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(svc.Handler())
	srv.Config.ReadHeaderTimeout = time.Second
	srv.Config.ReadTimeout = 300 * time.Millisecond
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		_ = svc.Close(context.Background())
	})
	// A server that never answers fails the test instead of hanging it.
	hc := srv.Client()
	hc.Timeout = 10 * time.Second

	if code, res := postReader(t, srv, iotest.OneByteReader(bytes.NewReader(encodeBatch(obs[:10])))); code != http.StatusOK || res.Accepted != 10 {
		t.Fatalf("one-byte-per-read body: code %d res %+v, want 200 with 10 accepted", code, res)
	}

	pr, pw := io.Pipe()
	defer pw.Close()
	if code, res := postReader(t, srv, pr); code != http.StatusBadRequest || !strings.Contains(res.Error, "timeout") {
		t.Fatalf("stalled body: code %d res %+v, want a 400 read timeout", code, res)
	}
	if v, _ := svc.Verdict("slow"); v.Accepted != 10 {
		t.Fatalf("stalled body moved the cursor to %d, want 10", v.Accepted)
	}

	c := &Client{Base: srv.URL, HTTP: hc, BatchSize: 20, Seed: 1,
		Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	mustStream(t, c, obs)
	if got := verdictBytes(t, c); !bytes.Equal(want, got) {
		t.Errorf("verdicts after slow and stalled bodies differ from a calm run:\n%s\nvs\n%s", want, got)
	}
	if n := svc.ctr.panics.Load(); n != 0 {
		t.Errorf("service recovered %d panics, want 0", n)
	}
}

// TestRetiredRoutesNotFound pins that the per-tenant verdict route and
// the forced-checkpoint route are gone.
func TestRetiredRoutesNotFound(t *testing.T) {
	svc, _, _ := startServer(t, testCfg())
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/v1/verdicts/x"},
		{http.MethodPost, "/v1/checkpoint"},
	} {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(r.method, r.path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", r.method, r.path, rec.Code)
		}
	}
}

// TestMetricsExposition smoke-tests /metrics and /healthz.
func TestMetricsExposition(t *testing.T) {
	_, ts, c := startServer(t, testCfg())
	mustStream(t, c, genObs("m", 30, 41, 100, 400))
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dagauditd_ingest_accepted_total 60",
		`dagauditd_shard_queue_len{shard="0"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Observed values are audited per secret class, not exported: no
	// per-tenant value histogram or tenant-slot series.
	for _, gone := range []string{"dagauditd_req_latency", "dagauditd_tenant_slot"} {
		if strings.Contains(out, gone) {
			t.Errorf("/metrics exports %s series:\n%s", gone, out)
		}
	}
	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", hz.StatusCode)
	}
}

// TestCloseNoGoroutineLeak pins graceful shutdown: after Close (and
// connection teardown) the service has released every goroutine it
// started, and Close is idempotent.
func TestCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	svc, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	c := &Client{Base: ts.URL, HTTP: ts.Client(), BatchSize: 20}
	mustStream(t, c, genObs("g", 40, 51, 100, 400))
	ts.Close()
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err) // idempotent
	}
	// Ingest after Close is refused, not deadlocked.
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(`{"tenant":"g","seq":80,"secret":0,"cycle":1,"value":1}`+"\n"))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-Close ingest = %d, want 503", rec.Code)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, now, buf[:runtime.Stack(buf, true)])
	}
}
