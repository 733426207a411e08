// Package auditd is the always-on leakage-audit service: the
// productionized form of internal/audit's batch pipeline, built to keep
// producing trustworthy verdicts while clients misbehave, load spikes and
// the process gets killed.
//
// Architecture: timing observations arrive over HTTP as newline-delimited
// JSON batches, each line carrying (tenant, seq, secret, cycle, value).
// The handler validates and groups lines, then routes every tenant to one
// of a fixed set of shard workers over a bounded queue — the only place
// work can pile up, so overload surfaces as an immediate 429 + Retry-After
// instead of unbounded memory growth or a deadlocked accept loop. Each
// tenant owns a windowed audit.Auditor (compacted after every batch, so
// memory per tenant is O(window), not O(stream)) plus a bounded aggregate
// of every window ever audited.
//
// Robustness properties, each pinned by a test:
//
//   - Exactly-once ingest: every observation carries a per-tenant sequence
//     number; duplicates are acknowledged and dropped, gaps are rejected
//     with the expected sequence, so any client retry policy — including
//     blind full-stream replay after a server crash — converges on the
//     identical accepted stream and therefore the identical verdicts.
//   - Backpressure, not collapse: full shard queues shed load with 429;
//     the request path never blocks unboundedly and never allocates
//     proportionally to the flood.
//   - Graceful degradation: a tenant that keeps flooding past
//     DegradeAfter observations is switched to deterministic 1-in-
//     SampleKeep sampling (keyed on the sequence number, so the kept
//     subsequence — and every verdict derived from it — is independent of
//     timing and load).
//   - Panic isolation: a poisoned stream that panics the audit pipeline
//     quarantines that tenant and keeps the fleet serving; the quarantine
//     reason is visible in the tenant's verdict.
//   - Crash recovery: all tenant state checkpoints through internal/ckpt
//     (framed, checksummed, atomically renamed) every CheckpointEvery
//     accepted observations; a SIGKILL loses at most the un-checkpointed
//     tail, which the sequence protocol lets clients replay, so resumed
//     verdicts are byte-identical to an uninterrupted run.
package auditd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"sort"
	"sync"
	"sync/atomic"

	"dagguise/internal/audit"
	"dagguise/internal/ckpt"
	"dagguise/internal/obs"
	"dagguise/internal/rng"
)

// Observation is one wire-format timing sample. Seq numbers a tenant's
// observations densely from 0 across both secret classes: it is the
// exactly-once cursor, not a timestamp.
type Observation struct {
	Tenant string `json:"tenant"`
	Seq    uint64 `json:"seq"`
	Secret int    `json:"secret"`
	Cycle  uint64 `json:"cycle"`
	Value  uint64 `json:"value"`
}

// Config parameterises a Service.
type Config struct {
	// Audit is the per-tenant auditor configuration. Each tenant's
	// calibration seed is derived from Audit.Seed and the tenant name, so
	// tenants are statistically independent but individually reproducible.
	Audit audit.Config
	// Shards is the number of worker goroutines (default 4). Tenants hash
	// onto shards, so one tenant's batches always process in order.
	Shards int
	// QueueDepth bounds each shard's pending-batch queue (default 64);
	// a full queue sheds load with 429 instead of growing.
	QueueDepth int
	// MaxTenants bounds the tenant registry (default 64); past it, new
	// tenant names are refused outright (403, not a retryable 429).
	MaxTenants int
	// MaxBatchBytes / MaxLineBytes bound one ingest request body and one
	// NDJSON line (defaults 1 MiB / 4096).
	MaxBatchBytes int64
	MaxLineBytes  int
	// DegradeAfter is the per-tenant accepted-observation count past which
	// the service degrades to sampling instead of auditing every
	// observation (0 = never degrade).
	DegradeAfter int
	// SampleKeep is the degraded sampling rate: keep observations whose
	// seq is divisible by SampleKeep (default 4, minimum 2 once degraded).
	SampleKeep int
	// RecentWindows is how many of the latest window reports each
	// tenant's verdict retains (default 8).
	RecentWindows int
	// CheckpointPath, when non-empty, enables durable tenant-state
	// checkpoints at this file path.
	CheckpointPath string
	// CheckpointEvery is the auto-checkpoint cadence in accepted
	// observations across all tenants (0 = only explicit/shutdown
	// checkpoints).
	CheckpointEvery int
	// RetryAfterSeconds is the Retry-After hint attached to shed load
	// (default 1).
	RetryAfterSeconds int
	// Hook, when non-nil, runs for every accepted observation before it is
	// processed — the test seam for injecting processing faults
	// (e.g. panics on a poisoned stream). Keyed decisions must depend only
	// on (tenant, observation) to preserve determinism.
	Hook func(tenant string, o Observation)

	// Rules is ignored. It stays only so the frozen dagbench security
	// workload, which still sets it to obs.DefaultRules(), builds until
	// its next revision drops that argument (ROADMAP item 5).
	Rules []obs.Rule
}

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.Audit.Window == 0 {
		c.Audit = audit.DefaultConfig()
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 1 << 20
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 4096
	}
	if c.SampleKeep < 2 {
		c.SampleKeep = 4
	}
	if c.RecentWindows <= 0 {
		c.RecentWindows = 8
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	return c
}

// aggregate is a tenant's bounded fold over every window ever audited —
// the verdict survives even though full reports are handed off and
// samples compacted away.
type aggregate struct {
	Windows            int     `json:"windows"`
	Tripped            int     `json:"tripped"`
	MaxMI              float64 `json:"max_mi_bits"`
	FirstExceeded      int     `json:"first_exceeded_window"`
	FirstExceededCycle uint64  `json:"first_exceeded_cycle"`
}

// tenant is one audited stream's full state. Only its shard goroutine
// mutates it (under mu); verdict and checkpoint readers lock mu briefly.
type tenant struct {
	mu   sync.Mutex
	name string

	nextSeq  uint64
	kept     [2]uint64
	sampled  uint64 // degradation-sampled observations (accepted, not audited)
	degraded bool

	poisoned     bool
	poisonReason string

	flushed    bool
	flushError string

	aud    *audit.Auditor
	agg    aggregate
	recent []audit.WindowReport
}

// fold drains finished window reports into the bounded aggregate.
func (t *tenant) fold(recentCap int) {
	for _, w := range t.aud.TakeWindows() {
		t.agg.Windows++
		if len(w.Detectors) > 0 {
			t.agg.Tripped++
		}
		if w.MI > t.agg.MaxMI {
			t.agg.MaxMI = w.MI
		}
		if w.Exceeded && t.agg.FirstExceeded < 0 {
			t.agg.FirstExceeded = w.Index
			t.agg.FirstExceededCycle = w.StartCycle
		}
		t.recent = append(t.recent, w)
	}
	if len(t.recent) > recentCap {
		t.recent = append([]audit.WindowReport(nil), t.recent[len(t.recent)-recentCap:]...)
	}
}

// batchReq is one tenant's slice of an ingest request, queued to a shard.
type batchReq struct {
	t    *tenant
	obs  []Observation
	done chan batchResp // buffered(1): the shard never blocks on a gone handler
}

// batchResp is the processing outcome the handler turns into HTTP.
type batchResp struct {
	accepted   int
	duplicates int
	nextSeq    uint64
	gap        *uint64 // non-nil: first out-of-order seq, value = expected
	poisoned   string  // non-empty: tenant quarantined with this reason
}

// counters are the service-level metrics exported at /metrics.
type counters struct {
	batches, observations, accepted, duplicates atomic.Uint64
	shed, gaps, malformed, rejectedTenants      atomic.Uint64
	quarantined, panics, checkpoints            atomic.Uint64
}

// Service is the leakage-audit daemon core: wire it to HTTP with Handler.
type Service struct {
	cfg Config

	shards []chan *batchReq // one bounded queue per shard worker

	mu      sync.RWMutex
	tenants map[string]*tenant

	accepting atomic.Bool
	ready     atomic.Bool

	handlerWG sync.WaitGroup // in-flight ingest handlers (gates shutdown)
	shardWG   sync.WaitGroup

	ckptMu    sync.Mutex
	sinceCkpt atomic.Uint64

	ctr       counters
	closeOnce sync.Once
	closeErr  error
}

// New builds a Service. When cfg.CheckpointPath names an existing
// checkpoint, all tenant state is restored from it before serving — the
// crash-recovery path — so the first verdict after a kill continues the
// stream exactly where the last checkpoint captured it.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Audit.Validate(); err != nil {
		return nil, fmt.Errorf("auditd: %w", err)
	}
	s := &Service{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
	}
	if cfg.CheckpointPath != "" {
		if err := s.restore(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := make(chan *batchReq, cfg.QueueDepth)
		s.shards = append(s.shards, sh)
		s.shardWG.Add(1)
		go s.runShard(sh)
	}
	s.accepting.Store(true)
	s.ready.Store(true)
	return s, nil
}

// shardFor maps a tenant name onto its shard's queue, so one tenant's
// batches always process in order on one goroutine.
func (s *Service) shardFor(name string) chan<- *batchReq {
	h := fnv.New32a()
	h.Write([]byte(name))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// errTooManyTenants rejects tenant-registry growth past the bound.
var errTooManyTenants = fmt.Errorf("auditd: tenant limit reached")

// tenantFor returns (creating if needed) the named tenant.
func (s *Service) tenantFor(name string) (*tenant, error) {
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.tenants[name]; t != nil {
		return t, nil
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, errTooManyTenants
	}
	t, err := s.newTenant(name)
	if err != nil {
		return nil, err
	}
	s.tenants[name] = t
	return t, nil
}

// newTenant builds a fresh tenant with a name-derived calibration seed.
// Caller holds s.mu.
func (s *Service) newTenant(name string) (*tenant, error) {
	cfg := s.cfg.Audit
	cfg.Seed = rng.Derive(cfg.Seed, name)
	aud, err := audit.New(cfg)
	if err != nil {
		return nil, err
	}
	t := &tenant{name: name, aud: aud}
	t.agg.FirstExceeded = -1
	return t, nil
}

// runShard is one worker: it drains its queue until Close closes it,
// checkpointing on cadence with no tenant locks held.
func (s *Service) runShard(sh <-chan *batchReq) {
	defer s.shardWG.Done()
	for req := range sh {
		resp := s.processBatch(req.t, req.obs)
		req.done <- resp
		if s.cfg.CheckpointPath != "" && s.cfg.CheckpointEvery > 0 &&
			s.sinceCkpt.Add(uint64(resp.accepted)) >= uint64(s.cfg.CheckpointEvery) {
			s.sinceCkpt.Store(0)
			_ = s.Checkpoint() // best-effort; surfaced via /readyz staleness, not by dropping data
		}
	}
}

// processBatch applies one tenant's observations under its lock. A panic
// anywhere in the audit pipeline quarantines this tenant only — the
// recover is the service's per-tenant blast wall.
func (s *Service) processBatch(t *tenant, batch []Observation) (resp batchResp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			t.poisoned = true
			t.poisonReason = fmt.Sprintf("panic: %v", p)
			s.ctr.panics.Add(1)
			s.ctr.quarantined.Add(1)
			resp = batchResp{nextSeq: t.nextSeq, poisoned: t.poisonReason}
		}
	}()
	if t.poisoned {
		return batchResp{nextSeq: t.nextSeq, poisoned: t.poisonReason}
	}
	for _, o := range batch {
		switch {
		case o.Seq < t.nextSeq:
			resp.duplicates++
			continue
		case o.Seq > t.nextSeq:
			expected := t.nextSeq
			resp.gap = &expected
			resp.nextSeq = t.nextSeq
			s.ctr.gaps.Add(1)
			s.ctr.accepted.Add(uint64(resp.accepted))
			s.ctr.duplicates.Add(uint64(resp.duplicates))
			return resp
		}
		t.nextSeq++
		resp.accepted++
		if s.cfg.Hook != nil {
			s.cfg.Hook(t.name, o)
		}
		if s.cfg.DegradeAfter > 0 && t.nextSeq > uint64(s.cfg.DegradeAfter) {
			t.degraded = true
		}
		if t.degraded && o.Seq%uint64(s.cfg.SampleKeep) != 0 {
			t.sampled++
			continue
		}
		t.kept[o.Secret]++
		// An admitted batch is audited to completion: no context cancels
		// a window mid-calibration, so the only possible error is an
		// out-of-range secret.
		if err := t.aud.Push(context.Background(), o.Secret, audit.Sample{Cycle: o.Cycle, Value: o.Value}); err != nil {
			panic(err) // secret validated at parse; reaching here is a pipeline bug
		}
	}
	t.fold(s.cfg.RecentWindows)
	t.aud.Compact()
	resp.nextSeq = t.nextSeq
	s.ctr.accepted.Add(uint64(resp.accepted))
	s.ctr.duplicates.Add(uint64(resp.duplicates))
	return resp
}

// TenantVerdict is one tenant's externally visible audit state. Every
// field is a deterministic function of the tenant's accepted observation
// stream, so verdict JSON is byte-diffable across crash/recovery runs.
type TenantVerdict struct {
	Tenant   string    `json:"tenant"`
	Accepted uint64    `json:"accepted"`
	Kept     [2]uint64 `json:"kept"`
	Sampled  uint64    `json:"sampled_out"`
	Pending  [2]int    `json:"pending"`
	Degraded bool      `json:"degraded"`

	Quarantined      bool   `json:"quarantined"`
	QuarantineReason string `json:"quarantine_reason,omitempty"`

	Flushed    bool   `json:"flushed"`
	FlushError string `json:"flush_error,omitempty"`

	Windows            int                  `json:"windows"`
	Tripped            int                  `json:"tripped"`
	MaxMI              float64              `json:"max_mi_bits"`
	FirstExceeded      int                  `json:"first_exceeded_window"`
	FirstExceededCycle uint64               `json:"first_exceeded_cycle"`
	WithinBudget       bool                 `json:"within_budget"`
	Recent             []audit.WindowReport `json:"recent_windows,omitempty"`
}

// verdictLocked renders the tenant's verdict; caller holds t.mu.
func (t *tenant) verdictLocked() TenantVerdict {
	return TenantVerdict{
		Tenant:             t.name,
		Accepted:           t.nextSeq,
		Kept:               t.kept,
		Sampled:            t.sampled,
		Pending:            t.aud.Pending(),
		Degraded:           t.degraded,
		Quarantined:        t.poisoned,
		QuarantineReason:   t.poisonReason,
		Flushed:            t.flushed,
		FlushError:         t.flushError,
		Windows:            t.agg.Windows,
		Tripped:            t.agg.Tripped,
		MaxMI:              t.agg.MaxMI,
		FirstExceeded:      t.agg.FirstExceeded,
		FirstExceededCycle: t.agg.FirstExceededCycle,
		WithinBudget:       t.agg.FirstExceeded < 0,
		Recent:             append([]audit.WindowReport(nil), t.recent...),
	}
}

// sortedTenants snapshots the registry in name order.
func (s *Service) sortedTenants() []*tenant {
	s.mu.RLock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.RUnlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	return ts
}

// Verdicts returns every tenant's verdict, sorted by tenant name.
func (s *Service) Verdicts() []TenantVerdict {
	ts := s.sortedTenants()
	out := make([]TenantVerdict, 0, len(ts))
	for _, t := range ts {
		t.mu.Lock()
		out = append(out, t.verdictLocked())
		t.mu.Unlock()
	}
	return out
}

// Verdict returns one tenant's verdict.
func (s *Service) Verdict(name string) (TenantVerdict, bool) {
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t == nil {
		return TenantVerdict{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.verdictLocked(), true
}

// Flush force-evaluates the named tenant's final partial window — the
// end-of-stream audit. A starved stream surfaces the typed
// audit.ErrInsufficientSamples, which is also recorded on the verdict.
func (s *Service) Flush(name string) (*audit.WindowReport, error) {
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("auditd: unknown tenant %q", name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.poisoned {
		return nil, fmt.Errorf("auditd: tenant %q quarantined: %s", name, t.poisonReason)
	}
	// The flush is not tied to the requesting client: a calibration
	// abandoned on a disconnect would be recorded as the tenant's flush
	// error.
	rep, err := t.aud.Flush(context.Background())
	t.flushed = true
	if err != nil {
		t.flushError = err.Error()
		return nil, err
	}
	t.flushError = ""
	t.fold(s.cfg.RecentWindows)
	t.aud.Compact()
	return rep, nil
}

// Overloaded reports whether every shard queue is at capacity — the
// /readyz signal that new ingest is likely to shed.
func (s *Service) Overloaded() bool {
	for _, sh := range s.shards {
		if len(sh) < cap(sh) {
			return false
		}
	}
	return true
}

// Close drains and stops the service: ingest is refused first, in-flight
// handlers finish, shard queues run dry, and a final checkpoint persists
// every tenant. Safe to call more than once. The context bounds the
// handler drain only in that callers should have stopped the HTTP server
// (or its listeners) first; Close itself waits for its own goroutines.
func (s *Service) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.ready.Store(false)
		s.accepting.Store(false)
		s.handlerWG.Wait() // no new enqueues past this point
		for _, sh := range s.shards {
			close(sh)
		}
		s.shardWG.Wait()
		s.closeErr = s.Checkpoint()
		_ = ctx
	})
	return s.closeErr
}

// serviceStateKind tags the checkpoint payload so a dagauditd checkpoint
// is never confused with a simulator snapshot sharing the same framing.
const serviceStateKind = "dagauditd-tenants"

// serviceStateVersion guards the checkpoint schema.
const serviceStateVersion = 1

// tenantState is one tenant's serialized form.
type tenantState struct {
	Name         string               `json:"name"`
	NextSeq      uint64               `json:"next_seq"`
	Kept         [2]uint64            `json:"kept"`
	Sampled      uint64               `json:"sampled"`
	Degraded     bool                 `json:"degraded"`
	Poisoned     bool                 `json:"poisoned"`
	PoisonReason string               `json:"poison_reason,omitempty"`
	Flushed      bool                 `json:"flushed"`
	FlushError   string               `json:"flush_error,omitempty"`
	Agg          aggregate            `json:"agg"`
	Recent       []audit.WindowReport `json:"recent,omitempty"`
	Auditor      *audit.AuditorState  `json:"auditor"`
}

// serviceState is the full checkpoint payload. Restore decodes it
// strictly, so a checkpoint holding keys this build lacks (the "tsdb"
// and "engine" of one written with SLO alerting on) is refused as
// corrupt.
type serviceState struct {
	Kind    string        `json:"kind"`
	Version int           `json:"version"`
	Tenants []tenantState `json:"tenants"`
}

// snapshot captures all tenant state. Tenants are locked one at a time:
// per-tenant consistency is the recovery invariant (nextSeq must match the
// auditor position), cross-tenant simultaneity is not required because
// tenants never interact.
func (s *Service) snapshot() *serviceState {
	st := &serviceState{Kind: serviceStateKind, Version: serviceStateVersion}
	for _, t := range s.sortedTenants() {
		t.mu.Lock()
		st.Tenants = append(st.Tenants, tenantState{
			Name:         t.name,
			NextSeq:      t.nextSeq,
			Kept:         t.kept,
			Sampled:      t.sampled,
			Degraded:     t.degraded,
			Poisoned:     t.poisoned,
			PoisonReason: t.poisonReason,
			Flushed:      t.flushed,
			FlushError:   t.flushError,
			Agg:          t.agg,
			Recent:       append([]audit.WindowReport(nil), t.recent...),
			Auditor:      t.aud.SaveState(),
		})
		t.mu.Unlock()
	}
	return st
}

// Checkpoint persists all tenant state through the internal/ckpt framing
// (checksummed, atomically renamed): a kill at any instant leaves either
// the previous checkpoint or this one, never a torn file.
func (s *Service) Checkpoint() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	payload, err := json.Marshal(s.snapshot())
	if err != nil {
		return fmt.Errorf("auditd: encode checkpoint: %w", err)
	}
	if err := ckpt.SaveFrame(s.cfg.CheckpointPath, payload); err != nil {
		return err
	}
	s.ctr.checkpoints.Add(1)
	return nil
}

// restore loads the checkpoint at cfg.CheckpointPath if one exists. Every
// corruption the frame detects (truncation, bit rot, a wrong file) and a
// payload with fields this build does not know fail with ckpt's typed
// errors instead of restoring silently wrong verdicts.
func (s *Service) restore() error {
	payload, err := ckpt.LoadFrame(s.cfg.CheckpointPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // fresh start
		}
		return err
	}
	var st serviceState
	if err := ckpt.DecodeStrict(payload, &st); err != nil {
		return fmt.Errorf("auditd: checkpoint: %w", err)
	}
	if st.Kind != serviceStateKind {
		return fmt.Errorf("auditd: checkpoint kind %q, want %q", st.Kind, serviceStateKind)
	}
	if st.Version != serviceStateVersion {
		return fmt.Errorf("auditd: checkpoint version %d, this build reads %d", st.Version, serviceStateVersion)
	}
	for _, ts := range st.Tenants {
		aud, err := audit.RestoreAuditor(ts.Auditor)
		if err != nil {
			return fmt.Errorf("auditd: restore tenant %q: %w", ts.Name, err)
		}
		t := &tenant{
			name: ts.Name, nextSeq: ts.NextSeq,
			kept: ts.Kept, sampled: ts.Sampled, degraded: ts.Degraded,
			poisoned: ts.Poisoned, poisonReason: ts.PoisonReason,
			flushed: ts.Flushed, flushError: ts.FlushError,
			aud: aud, agg: ts.Agg,
			recent: append([]audit.WindowReport(nil), ts.Recent...),
		}
		s.tenants[ts.Name] = t
	}
	return nil
}
