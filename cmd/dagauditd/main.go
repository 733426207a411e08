// Command dagauditd is the always-on leakage-audit daemon: it accepts
// timing observations over HTTP (newline-delimited JSON batches, one
// observation per line), audits each tenant's stream through the
// calibrated windowed detectors of internal/audit, and serves per-tenant
// leakage verdicts, Prometheus metrics and health endpoints.
//
// The service is built to stay correct while everything around it
// misbehaves: bounded ingest queues shed load with 429 + Retry-After,
// flooding tenants degrade to deterministic sampling instead of taking
// the process down, a panicking tenant pipeline quarantines that tenant
// only, and all tenant state checkpoints through internal/ckpt so a
// SIGKILL loses at most the un-checkpointed tail — which the sequence-
// numbered ingest protocol lets clients simply replay. A resumed daemon
// fed the same stream produces byte-identical verdicts to one that never
// died; the CI soak job enforces exactly that with a mid-stream kill.
//
// With -alert-webhook, -alert-rules or -telem-dir the daemon also runs
// the SLO alerting pipeline: every audited window, shard queue sample
// and retry indicator feeds the in-process time-series store, and the
// rule engine (the stock catalog, or a -alert-rules JSON file)
// evaluates after each batch. Alert history, the firing set and the
// active rules are readable at /v1/alerts, and both ride the service
// checkpoint so a restart neither loses nor re-fires past edges.
// -alert-webhook POSTs each deduplicated alert edge as one JSON body to
// any HTTP receiver, with bounded retries. -telem-dir mirrors the
// series onto a telemetry stream, so `dagtop -dir` shows the daemon's
// firing alerts live.
//
// Usage:
//
//	dagauditd -addr 127.0.0.1:9470
//	dagauditd -checkpoint state/auditd.ckpt -checkpoint-every 500
//	dagauditd -window 50 -perms 100 -boot 100 -budget 0.05
//	dagauditd -alert-webhook http://127.0.0.1:9801/ -alert-rules rules.json
//	dagauditd -telem-dir auditd-telem    # then: dagtop -dir auditd-telem
//
// Endpoints:
//
//	POST /v1/ingest                  observation batch (NDJSON)
//	GET  /v1/verdicts                all tenant verdicts
//	GET  /v1/verdicts/{tenant}       one tenant
//	GET  /v1/alerts                  alert history, firing set, rule catalog
//	POST /v1/tenants/{tenant}/flush  audit the final partial window
//	POST /v1/checkpoint              force a durable checkpoint
//	GET  /metrics, /healthz, /readyz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dagguise/internal/audit"
	"dagguise/internal/auditd"
	"dagguise/internal/obs"
	"dagguise/internal/telem"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9470", "listen address")

	window := flag.Int("window", 50, "audit window size per secret class")
	stride := flag.Int("stride", 0, "window stride (0 = tumbling)")
	budget := flag.Float64("budget", 0.05, "leakage budget in bits")
	alpha := flag.Float64("alpha", 0.01, "per-window false-positive rate")
	perms := flag.Int("perms", 100, "permutations per window calibration")
	boot := flag.Int("boot", 100, "bootstrap resamples per window")
	confidence := flag.Float64("confidence", 0.95, "MI confidence-interval level")
	binWidth := flag.Uint64("bin-width", 8, "MI histogram bin width")
	seed := flag.Int64("seed", 1, "base calibration seed (each tenant derives its own)")

	shards := flag.Int("shards", 4, "audit worker shards")
	queueDepth := flag.Int("queue-depth", 64, "pending batches per shard before load-shedding")
	maxTenants := flag.Int("max-tenants", 64, "tenant registry bound")
	degradeAfter := flag.Int("degrade-after", 0, "per-tenant observations before degrading to sampling (0 = never)")
	sampleKeep := flag.Int("sample-keep", 4, "degraded mode keeps 1 in this many observations")
	recent := flag.Int("recent", 8, "recent window reports retained per tenant verdict")

	ckptPath := flag.String("checkpoint", "", "checkpoint file path (empty = no durability)")
	ckptEvery := flag.Int("checkpoint-every", 0, "auto-checkpoint cadence in accepted observations (0 = manual/shutdown only)")

	readTimeout := flag.Duration("read-timeout", 10*time.Second, "per-request body read timeout (bounds slow/stalled clients)")
	maxBatch := flag.Int64("max-batch-bytes", 1<<20, "ingest request body limit")

	alertWebhook := flag.String("alert-webhook", "", "POST deduplicated alert edges as JSON to this URL (any HTTP receiver)")
	alertRules := flag.String("alert-rules", "", "JSON file with the SLO rule list (default: the stock catalog when alerting is on)")
	telemDir := flag.String("telem-dir", "", "turn alerting on and mirror the SLO feed series onto a telemetry stream (telem-worker-auditd.ndjson) in this directory, for dagtop -dir")
	flag.Parse()

	cfg := auditd.Config{
		Audit: audit.Config{
			Window: *window, Stride: *stride, BinWidth: *binWidth,
			Budget: *budget, Alpha: *alpha,
			Permutations: *perms, Bootstrap: *boot,
			Confidence: *confidence, Seed: *seed,
		},
		Shards: *shards, QueueDepth: *queueDepth, MaxTenants: *maxTenants,
		MaxBatchBytes: *maxBatch,
		DegradeAfter:  *degradeAfter, SampleKeep: *sampleKeep,
		RecentWindows:  *recent,
		CheckpointPath: *ckptPath, CheckpointEvery: *ckptEvery,
	}
	var notifier *obs.Notifier
	if *alertWebhook != "" || *alertRules != "" || *telemDir != "" {
		cfg.Rules = obs.DefaultRules()
		if *alertRules != "" {
			data, err := os.ReadFile(*alertRules)
			if err != nil {
				fatal(err)
			}
			if cfg.Rules, err = obs.ParseRules(data); err != nil {
				fatal(err)
			}
		}
		if *alertWebhook != "" {
			notifier = obs.NewNotifier(*alertWebhook, obs.NotifierConfig{
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "dagauditd: alert webhook: "+format+"\n", args...)
				},
			})
			cfg.Notifier = notifier
		}
		fmt.Fprintf(os.Stderr, "dagauditd: alerting with %d rule(s)\n", len(cfg.Rules))
	}
	if *telemDir != "" {
		em, err := telem.OpenEmitter(*telemDir, "auditd", "")
		if err != nil {
			fatal(err)
		}
		defer em.Close()
		cfg.Telem = em
		fmt.Fprintf(os.Stderr, "dagauditd: telemetry stream in %s\n", *telemDir)
	}
	svc, err := auditd.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *ckptPath != "" {
		if n := len(svc.Verdicts()); n > 0 {
			fmt.Fprintf(os.Stderr, "dagauditd: restored %d tenant(s) from %s\n", n, *ckptPath)
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "dagauditd: serving on http://%s\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting connections, let in-flight requests
	// finish, then drain the shard queues and write the final checkpoint.
	fmt.Fprintln(os.Stderr, "dagauditd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dagauditd: shutdown:", err)
	}
	if err := svc.Close(shutCtx); err != nil {
		fatal(err)
	}
	notifier.Close() // drain queued alert deliveries (nil-safe)
	if *ckptPath != "" {
		fmt.Fprintf(os.Stderr, "dagauditd: final checkpoint at %s\n", *ckptPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dagauditd:", err)
	os.Exit(1)
}
