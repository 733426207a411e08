package auditd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"dagguise/internal/audit"
	"dagguise/internal/obs"
)

// IngestResult is the JSON body of every ingest response, success or not.
// Accepted/Duplicates count this request only; NextSeq is each touched
// tenant's cursor after the request, the client's replay point.
type IngestResult struct {
	Accepted   int               `json:"accepted"`
	Duplicates int               `json:"duplicates"`
	NextSeq    map[string]uint64 `json:"next_seq,omitempty"`
	Error      string            `json:"error,omitempty"`
	Tenant     string            `json:"tenant,omitempty"`
	Expected   *uint64           `json:"expected,omitempty"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/ingest                  NDJSON observation batch
//	GET  /v1/verdicts                all tenant verdicts (sorted, deterministic)
//	GET  /v1/verdicts/{tenant}       one tenant's verdict
//	POST /v1/tenants/{tenant}/flush  force the final partial window
//	POST /v1/checkpoint              force a durable checkpoint
//	GET  /metrics                    Prometheus text exposition
//	GET  /healthz                    liveness (process is up)
//	GET  /readyz                     readiness (accepting and not overloaded)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/verdicts", s.handleVerdicts)
	mux.HandleFunc("GET /v1/verdicts/{tenant}", s.handleVerdict)
	mux.HandleFunc("POST /v1/tenants/{tenant}/flush", s.handleFlush)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		if s.Overloaded() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "overloaded")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// writeJSON writes v with status code; encoding a fixed struct cannot
// fail, so errors are ignored past the header.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// parseBatch validates an NDJSON body into observations. Any malformed
// line poisons the whole batch (400): partial application would make the
// accepted stream depend on where parsing stopped.
func (s *Service) parseBatch(body []byte) ([]Observation, error) {
	var out []Observation
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), s.cfg.MaxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var o Observation
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&o); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		if o.Tenant == "" || len(o.Tenant) > 128 {
			return nil, fmt.Errorf("line %d: tenant must be 1..128 bytes", line)
		}
		if o.Secret != 0 && o.Secret != 1 {
			return nil, fmt.Errorf("line %d: secret must be 0 or 1, got %d", line, o.Secret)
		}
		out = append(out, o)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("line %d: exceeds %d-byte line limit", line+1, s.cfg.MaxLineBytes)
		}
		return nil, err
	}
	return out, nil
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.handlerWG.Add(1)
	defer s.handlerWG.Done()
	if !s.accepting.Load() {
		writeJSON(w, http.StatusServiceUnavailable, IngestResult{Error: "draining"})
		return
	}
	s.ctr.batches.Add(1)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes))
	if err != nil {
		s.ctr.malformed.Add(1)
		writeJSON(w, http.StatusBadRequest, IngestResult{Error: fmt.Sprintf("read body: %v", err)})
		return
	}
	batch, err := s.parseBatch(body)
	if err != nil {
		s.ctr.malformed.Add(1)
		writeJSON(w, http.StatusBadRequest, IngestResult{Error: err.Error()})
		return
	}
	s.ctr.observations.Add(uint64(len(batch)))

	// Group by tenant, preserving both per-tenant observation order and
	// first-appearance tenant order so processing is deterministic.
	groups := make(map[string][]Observation)
	var order []string
	for _, o := range batch {
		if _, ok := groups[o.Tenant]; !ok {
			order = append(order, o.Tenant)
		}
		groups[o.Tenant] = append(groups[o.Tenant], o)
	}

	res := IngestResult{NextSeq: make(map[string]uint64, len(order))}
	for _, name := range order {
		group := groups[name]
		t, err := s.tenantFor(name)
		if err != nil {
			if errors.Is(err, errTooManyTenants) {
				s.ctr.rejectedTenants.Add(1)
				res.Error, res.Tenant = err.Error(), name
				writeJSON(w, http.StatusForbidden, res)
				return
			}
			res.Error, res.Tenant = err.Error(), name
			writeJSON(w, http.StatusInternalServerError, res)
			return
		}
		req := &batchReq{t: t, obs: group, done: make(chan batchResp, 1)}
		select {
		case s.shardFor(name) <- req:
		default:
			// Queue full: shed this request rather than block or buffer.
			s.ctr.shed.Add(uint64(len(group)))
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
			res.Error, res.Tenant = "overloaded, retry later", name
			writeJSON(w, http.StatusTooManyRequests, res)
			return
		}
		var resp batchResp
		select {
		case resp = <-req.done:
		case <-r.Context().Done():
			// Client gone; the shard still applies the batch (the done
			// channel is buffered), so its work is not lost.
			return
		}
		res.Accepted += resp.accepted
		res.Duplicates += resp.duplicates
		res.NextSeq[name] = resp.nextSeq
		if resp.poisoned != "" {
			res.Error, res.Tenant = "tenant quarantined: "+resp.poisoned, name
			writeJSON(w, http.StatusUnprocessableEntity, res)
			return
		}
		if resp.gap != nil {
			res.Error, res.Tenant, res.Expected = "sequence gap", name, resp.gap
			writeJSON(w, http.StatusConflict, res)
			return
		}
	}
	writeJSON(w, http.StatusOK, res)
}

// VerdictsResponse is the GET /v1/verdicts body.
type VerdictsResponse struct {
	Tenants []TenantVerdict `json:"tenants"`
}

func (s *Service) handleVerdicts(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, VerdictsResponse{Tenants: s.Verdicts()})
}

func (s *Service) handleVerdict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	v, ok := s.Verdict(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, IngestResult{Error: "unknown tenant", Tenant: name})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// FlushResponse is the POST /v1/tenants/{t}/flush body.
type FlushResponse struct {
	Tenant  string              `json:"tenant"`
	Window  *audit.WindowReport `json:"window,omitempty"`
	Error   string              `json:"error,omitempty"`
	Starved bool                `json:"starved,omitempty"`
}

func (s *Service) handleFlush(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	rep, err := s.Flush(name)
	resp := FlushResponse{Tenant: name, Window: rep}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, audit.ErrInsufficientSamples):
		// The typed starvation error: the stream never produced two
		// samples per secret class, so no calibrated verdict exists.
		resp.Error, resp.Starved = err.Error(), true
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	default:
		resp.Error = err.Error()
		code := http.StatusConflict
		s.mu.RLock()
		_, known := s.tenants[name]
		s.mu.RUnlock()
		if !known {
			code = http.StatusNotFound
		}
		writeJSON(w, code, resp)
	}
}

func (s *Service) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.CheckpointPath == "" {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": "checkpointing disabled"})
		return
	}
	if err := s.Checkpoint(); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"checkpoints": s.Checkpoints()})
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"ingest_batches", s.ctr.batches.Load()},
		{"ingest_observations", s.ctr.observations.Load()},
		{"ingest_accepted", s.ctr.accepted.Load()},
		{"ingest_duplicates", s.ctr.duplicates.Load()},
		{"ingest_shed", s.ctr.shed.Load()},
		{"ingest_gaps", s.ctr.gaps.Load()},
		{"ingest_malformed", s.ctr.malformed.Load()},
		{"tenants_rejected", s.ctr.rejectedTenants.Load()},
		{"tenants_quarantined", s.ctr.quarantined.Load()},
		{"panics_recovered", s.ctr.panics.Load()},
		{"checkpoints", s.ctr.checkpoints.Load()},
	} {
		fmt.Fprintf(w, "# TYPE dagauditd_%s_total counter\n", c.name)
		fmt.Fprintf(w, "dagauditd_%s_total %d\n", c.name, c.v)
	}
	// Each shard queue's current length; its capacity is QueueDepth, and
	// a full queue is what sheds load.
	fmt.Fprintln(w, "# TYPE dagauditd_shard_queue_len gauge")
	for i, sh := range s.shards {
		fmt.Fprintf(w, "dagauditd_shard_queue_len{shard=\"%d\"} %d\n", i, len(sh))
	}
	// Tenant → metrics-domain mapping, then the per-domain registry
	// (request-value histograms keyed by tenant slot).
	for _, t := range s.sortedTenants() {
		fmt.Fprintf(w, "dagauditd_tenant_slot{tenant=%q} %d\n", t.name, t.slot)
	}
	_ = obs.WritePrometheus(w, s.mx.Snapshot(), "dagauditd")
}
