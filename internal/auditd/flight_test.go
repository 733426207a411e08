package auditd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dagguise/internal/obs"
)

// alertSink is a test webhook: it records every alert edge dagauditd
// delivers.
type alertSink struct {
	mu     sync.Mutex
	alerts []obs.Alert
}

func (as *alertSink) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var a obs.Alert
		if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		as.mu.Lock()
		as.alerts = append(as.alerts, a)
		as.mu.Unlock()
	})
}

func (as *alertSink) got() []obs.Alert {
	as.mu.Lock()
	defer as.mu.Unlock()
	return append([]obs.Alert(nil), as.alerts...)
}

// fetchAlerts reads the /v1/alerts endpoint.
func fetchAlerts(t *testing.T, c *Client) AlertsResponse {
	t.Helper()
	raw, err := c.get(context.Background(), "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	var ar AlertsResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

// burnEdges filters one tenant's leak-budget edges out of a history.
func burnEdges(history []obs.Alert, tenant string) []obs.Alert {
	var out []obs.Alert
	for _, a := range history {
		if a.Rule == "leak-budget-burn" && a.Series == "leak_burn/"+tenant {
			out = append(out, a)
		}
	}
	return out
}

// TestAlertingLeakyFiresCleanSilent is the PR's acceptance scenario in
// one process: with the stock rule catalog and a webhook wired in, a
// tenant burning its leakage budget fires exactly one deduplicated
// alert edge (delivered to the webhook and visible at /v1/alerts),
// while a clean DAGguise-shaped tenant stays silent.
func TestAlertingLeakyFiresCleanSilent(t *testing.T) {
	sink := &alertSink{}
	hook := httptest.NewServer(sink.handler())
	defer hook.Close()
	notifier := obs.NewNotifier(hook.URL, obs.NotifierConfig{Backoff: time.Millisecond})

	tr := obs.NewTracer(1 << 12)
	cfg := testCfg()
	cfg.Rules = obs.DefaultRules()
	cfg.Notifier = notifier
	cfg.Tracer = tr
	_, _, c := startServer(t, cfg)

	leaky := genObs("leaky", 60, 7, 100, 400)
	clean := genObs("clean", 60, 8, 100, 100)
	mustStream(t, c, append(append([]Observation{}, leaky...), clean...))
	for _, tenant := range []string{"clean", "leaky"} {
		if _, err := c.Flush(context.Background(), tenant); err != nil {
			t.Fatal(err)
		}
	}

	ar := fetchAlerts(t, c)
	if got := burnEdges(ar.History, "leaky"); len(got) != 1 || got[0].State != "firing" {
		t.Fatalf("leaky tenant burn edges = %+v, want exactly one firing edge", got)
	}
	if got := burnEdges(ar.History, "clean"); len(got) != 0 {
		t.Fatalf("clean tenant fired burn alerts: %+v", got)
	}
	wantKey := "leak-budget-burn|leak_burn/leaky"
	found := false
	for _, k := range ar.Firing {
		if k == wantKey {
			found = true
		}
	}
	if !found {
		t.Fatalf("firing set %v missing %q", ar.Firing, wantKey)
	}
	if len(ar.Rules) == 0 {
		t.Fatal("alerts response carries no rule set")
	}

	// The edge reached the webhook (delivery is async; Close drains).
	notifier.Close()
	var hits int
	for _, a := range sink.got() {
		if a.Rule == "leak-budget-burn" && a.Series == "leak_burn/leaky" && a.State == "firing" {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("webhook received %d leaky burn edges, want 1 (got %+v)", hits, sink.got())
	}
	if notifier.Failed() != 0 || notifier.Dropped() != 0 {
		t.Fatalf("webhook delivery lost edges: failed=%d dropped=%d", notifier.Failed(), notifier.Dropped())
	}

	// The flight tracer recorded the edge as an EvAlert event.
	var alertEvents int
	for _, ev := range tr.Events() {
		if ev.Kind == obs.EvAlert && strings.Contains(ev.Name, "leak_burn/leaky") {
			alertEvents++
		}
	}
	if alertEvents != 1 {
		t.Fatalf("tracer holds %d leaky alert events, want 1", alertEvents)
	}
}

// TestAlertStateSurvivesCheckpoint pins the durable-alerting contract:
// TSDB points and engine dedup state ride the service checkpoint, so a
// SIGKILL + restore + blind full replay does not re-fire an alert that
// already fired, and the alert history is preserved.
func TestAlertStateSurvivesCheckpoint(t *testing.T) {
	stream := genObs("leaky", 60, 7, 100, 400)
	dir := t.TempDir()
	cfg := testCfg()
	cfg.Rules = obs.DefaultRules()
	cfg.CheckpointPath = filepath.Join(dir, "auditd.ckpt")

	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())
	c1 := &Client{Base: ts1.URL, HTTP: ts1.Client(), BatchSize: 20, Seed: 1,
		Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	mustStream(t, c1, stream)
	before := fetchAlerts(t, c1)
	if got := burnEdges(before.History, "leaky"); len(got) != 1 {
		t.Fatalf("pre-kill burn edges = %+v, want 1", got)
	}
	if err := c1.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	svc1.killForTest()

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

	restored := fetchAlerts(t, c2)
	if got := burnEdges(restored.History, "leaky"); len(got) != 1 || got[0].Seq != burnEdges(before.History, "leaky")[0].Seq {
		t.Fatalf("alert history not restored: %+v vs %+v", restored.History, before.History)
	}

	// Blind full replay: everything dup-acks, the burn rate is unchanged,
	// and the restored dedup state suppresses a duplicate firing edge.
	res := mustStream(t, c2, stream)
	if res.Duplicates == 0 {
		t.Fatal("replay produced no duplicates: checkpoint restored nothing")
	}
	after := fetchAlerts(t, c2)
	if got := burnEdges(after.History, "leaky"); len(got) != 1 {
		t.Fatalf("replay re-fired a deduplicated alert: %+v", got)
	}
	wantKey := "leak-budget-burn|leak_burn/leaky"
	found := false
	for _, k := range after.Firing {
		if k == wantKey {
			found = true
		}
	}
	if !found {
		t.Fatalf("restored firing set %v missing %q", after.Firing, wantKey)
	}
}

// TestIngestSpanPropagation checks the cross-process span contract: the
// client's stream span travels in the X-Dag-Span header and becomes the
// parent of every server-side ingest span; a malformed header degrades
// to an unparented span instead of failing the ingest.
func TestIngestSpanPropagation(t *testing.T) {
	tr := obs.NewTracer(1 << 12)
	cfg := testCfg()
	cfg.Spans = obs.NewSpans(tr)
	_, ts, c := startServer(t, cfg)
	c.Spans = obs.NewSpans(nil) // client-side: IDs + propagation, no local ring

	stream := genObs("clean", 30, 9, 100, 100) // 60 obs, batch 20 => 3 ingests
	mustStream(t, c, stream)

	var begins []obs.Event
	ends := 0
	for _, ev := range tr.Events() {
		switch {
		case ev.Kind == obs.EvSpanBegin && ev.Name == "ingest":
			begins = append(begins, ev)
		case ev.Kind == obs.EvSpanEnd && ev.Name == "ingest":
			ends++
		}
	}
	if len(begins) != 3 {
		t.Fatalf("server recorded %d ingest spans, want 3", len(begins))
	}
	for _, ev := range begins {
		// The client's first allocated span ID is 1: the Stream span.
		if ev.Parent != 1 {
			t.Fatalf("ingest span parent = %d, want the client stream span (1): %+v", ev.Parent, ev)
		}
		if ev.Comp != obs.CompService {
			t.Fatalf("ingest span on component %v, want CompService", ev.Comp)
		}
	}
	if ends != len(begins) {
		t.Fatalf("server left ingest spans open: %d begins, %d ends", len(begins), ends)
	}

	// A garbage span header must not fail ingest; the span lands with no
	// parent.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest",
		strings.NewReader(`{"tenant":"clean","seq":60,"secret":0,"cycle":600,"value":100}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(obs.SpanHeader, ";;;not-a-span;;;")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest with garbage span header returned %d", resp.StatusCode)
	}
	evs := tr.Events()
	last := evs[len(evs)-1]
	if last.Kind != obs.EvSpanEnd || last.Name != "ingest" {
		t.Fatalf("last event after garbage-header ingest = %+v", last)
	}
	if last.Parent != 0 {
		t.Fatalf("garbage header produced parent %d, want 0", last.Parent)
	}
}
