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
// Whether a tenant leaks is its verdict's within_budget field (with
// first_exceeded_window and first_exceeded_cycle saying where the
// budget first broke); /metrics counts duplicates and shed load and
// shows each shard queue's length.
//
// Usage:
//
//	dagauditd -addr 127.0.0.1:9470
//	dagauditd -checkpoint state/auditd.ckpt -checkpoint-every 500
//	dagauditd -window 50 -perms 100 -boot 100 -budget 0.05
//
// Endpoints:
//
//	POST /v1/ingest                  observation batch (NDJSON)
//	GET  /v1/verdicts                all tenant verdicts
//	GET  /v1/verdicts/{tenant}       one tenant
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
	if *ckptPath != "" {
		fmt.Fprintf(os.Stderr, "dagauditd: final checkpoint at %s\n", *ckptPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dagauditd:", err)
	os.Exit(1)
}
