package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"time"

	"dagguise/internal/attack"
	"dagguise/internal/audit"
	"dagguise/internal/auditd"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/eval"
	"dagguise/internal/obs"
	"dagguise/internal/rng"
	"dagguise/internal/stats"
	"dagguise/internal/verify"
)

// Sizes of the four security phases.
const (
	table1Probes = 100  // attacker probes per Table 1 harness run
	table1Trials = 2    // trials per secret and scheme
	verifyMaxK   = 12   // deepest induction MinimalK tries
	leakMaxK     = 16   // deepest base step DetectionDepth tries
	auditProbes  = 300  // probes per eval.Audit stream
	ingestProbes = 1000 // probes per tenant stream fed to dagauditd
	ingestBatch  = 100  // observations per ingest request
)

// table1Schemes is eval.Table1's scheme order.
var table1Schemes = []config.Scheme{
	config.Insecure, config.Camouflage, config.FixedService,
	config.FSBTA, config.TemporalPartitioning, config.DAGguise,
}

// runSecurity makes one iteration of the security workload: Table 1, the
// k-induction proof and the leaky model's detection depth, the streaming
// audit of the insecure and DAGguise schemes, and dagauditd ingest of the
// two schemes' tap streams. Set-up generates the ingest input and builds
// the service. Only the ingest phase takes the seed.
func runSecurity(e *env, traced bool) (sample, error) {
	s := sample{layers: map[string]float64{}, fixed: map[string]string{}, seeded: map[string]string{}}
	l := s.layers
	start := time.Now()
	seed := int64(e.input) + 1
	in, err := ingestInput(seed)
	if err != nil {
		return s, err
	}
	// The seed also drives the service's calibration streams, so each input
	// set gets its own verdict bytes.
	acfg := audit.DefaultConfig()
	acfg.Seed = seed
	svc, err := auditd.New(auditd.Config{Audit: acfg, Shards: 1, Rules: obs.DefaultRules()})
	if err != nil {
		return s, err
	}
	// Stops the service's goroutines on error paths; the success path
	// closes it and checks the error.
	defer svc.Close(context.Background())
	handler := svc.Handler()
	// Segments: each attack harness run, the proof, each audit, each
	// ingest request, and the close-out.
	var p phase
	p.mark()
	s.setup = p.marks[0].Sub(start)

	// Table 1. A tap on every harness records the attacker's probes; the
	// last probe's cycle ends the harness run, which gives its length.
	var taps []*audit.Tap
	attach := func(h *attack.Harness) {
		p.mark()
		t := audit.NewTap()
		h.SetAuditTap(t)
		taps = append(taps, t)
	}
	var rows []eval.Table1Row
	if traced {
		rows, err = table1Timed(l, attach)
	} else {
		rows, err = eval.Table1Observed(table1Probes, table1Trials, attach)
	}
	if err != nil {
		return s, err
	}
	for _, t := range taps {
		if samples := t.Samples(); len(samples) > 0 {
			s.cycles += samples[len(samples)-1].Cycle + 1
		}
	}
	l["attack.cycles"] = float64(s.cycles)
	for _, r := range rows {
		e.checks.expect("security/table1/"+r.Scheme.String()+"/secure-as-claimed", r.Secure == r.Claimed)
	}
	s.fixed["table1.txt"] = eval.FormatTable1(rows)

	p.mark()
	k, depth, err := proveAndBreak(l, traced)
	if err != nil {
		return s, err
	}
	s.fixed["verify.proven_k"] = strconv.Itoa(k)
	s.fixed["verify.leak_depth"] = strconv.Itoa(depth)

	t := time.Now()
	var verdicts []string
	for _, scheme := range []config.Scheme{config.Insecure, config.DAGguise} {
		p.mark()
		rep, err := eval.Audit(scheme, auditProbes, audit.DefaultConfig(), nil)
		if err != nil {
			return s, err
		}
		e.checks.expect("security/audit/"+scheme.String(), rep.WithinBudget == scheme.Secure())
		verdicts = append(verdicts, fmt.Sprintf("%s within_budget=%v first_exceeded=%d windows=%d",
			scheme, rep.WithinBudget, rep.FirstExceeded, len(rep.Windows)))
	}
	l["audit.stream_s"] = time.Since(t).Seconds()
	s.fixed["audit.verdicts"] = fmt.Sprint(verdicts)

	raw, err := ingest(e, l, &p, handler, in)
	if err != nil {
		return s, err
	}
	sum := sha256.Sum256(raw)
	s.seeded["auditd.verdicts.sha256"] = hex.EncodeToString(sum[:])
	if err := svc.Close(context.Background()); err != nil {
		return s, err
	}
	p.end(&s)

	covered := 0.0
	for _, name := range []string{"attack.sim_s", "audit.calibrate_s", "verify.base_s", "verify.induction_s",
		"verify.leak_depth_s", "audit.stream_s", "auditd.ingest_s"} {
		covered += l[name]
	}
	l["trace.coverage"] = covered / s.wall.Seconds()
	return s, nil
}

// table1Timed computes eval.Table1's rows with the same calls in the same
// order, timing the attack simulations apart from the calibration. The
// oracle checks that its text equals eval.Table1's.
func table1Timed(l map[string]float64, attach func(*attack.Harness)) ([]eval.Table1Row, error) {
	s0 := attack.Pattern{Gaps: []uint64{100}, Banks: []int{0, 1, 2, 3}}
	s1 := attack.Pattern{Gaps: []uint64{200}, Banks: []int{0, 1, 2, 3}}
	probe := attack.Probe{Bank: 0, Row: 0, Gap: 120}
	dist := camouflage.Distribution{Intervals: []uint64{200, 400}}
	miStat := func(a, b []uint64) float64 { return stats.BinaryMI(a, b, attack.LeakageBinWidth) }
	var rows []eval.Table1Row
	for _, scheme := range table1Schemes {
		t := time.Now()
		res, err := attack.MeasureLeakageOpts(scheme, eval.DefaultDefense(), dist, s0, s1, probe,
			table1Probes, table1Trials, attack.MeasureOpts{Attach: attach})
		l["attack.sim_s"] += time.Since(t).Seconds()
		if err != nil {
			return nil, err
		}
		t = time.Now()
		rnd := rng.New(4243 + int64(scheme))
		row := eval.Table1Row{
			Scheme:      scheme,
			AggregateMI: res.AggregateMI,
			SequenceMI:  res.SequenceMI,
			Accuracy:    res.Accuracy,
			Claimed:     scheme.Secure(),
		}
		row.AggThreshold = audit.PermutationThreshold(res.Raw0, res.Raw1, miStat, 200, 0.01, rnd)
		row.SeqThreshold = audit.SequencePermutationThreshold(res.Seq0, res.Seq1, attack.LeakageBinWidth, 200, 0.01, rnd)
		row.AggMILo, row.AggMIHi = audit.BootstrapCI(res.Raw0, res.Raw1, miStat, 200, 0.95, rnd)
		row.Secure = row.AggregateMI <= row.AggThreshold && row.SequenceMI <= row.SeqThreshold
		l["audit.calibrate_s"] += time.Since(t).Seconds()
		rows = append(rows, row)
	}
	return rows, nil
}

// proveAndBreak finds the minimal K that proves the default model and the
// depth at which the leaky model's counterexample appears. Untraced it
// calls MinimalK and DetectionDepth; traced it makes MinimalK's calls
// itself, timing base and induction steps apart.
func proveAndBreak(l map[string]float64, traced bool) (k, depth int, err error) {
	v, err := verify.NewVerifier(verify.DefaultModel())
	if err != nil {
		return 0, 0, err
	}
	leaky := verify.DefaultModel()
	leaky.Leaky = true
	lv, err := verify.NewVerifier(leaky)
	if err != nil {
		return 0, 0, err
	}
	if traced {
		k, err = minimalKTimed(l, v)
	} else {
		k, err = v.MinimalK(verifyMaxK)
	}
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	depth, _, err = lv.DetectionDepth(leakMaxK)
	l["verify.leak_depth_s"] = time.Since(t).Seconds()
	l["verify.proven_k"] = float64(k)
	l["verify.leak_depth"] = float64(depth)
	return k, depth, err
}

// minimalKTimed is Verifier.MinimalK with the base step, and the induction
// step with its determinism side condition, timed apart.
func minimalKTimed(l map[string]float64, v *verify.Verifier) (int, error) {
	for k := 1; k <= verifyMaxK; k++ {
		t := time.Now()
		base, _, err := v.CheckBase(k)
		l["verify.base_s"] += time.Since(t).Seconds()
		if err != nil {
			return 0, err
		}
		if !base {
			return 0, fmt.Errorf("verify: base step failed at k=%d", k)
		}
		t = time.Now()
		ind, _, err := v.CheckInduction(k)
		if err == nil && ind {
			_, _, err = v.CheckPublicDeterminism()
		}
		l["verify.induction_s"] += time.Since(t).Seconds()
		if err != nil {
			return 0, err
		}
		if ind {
			return k, nil
		}
	}
	return 0, fmt.Errorf("verify: induction did not close by k=%d", verifyMaxK)
}

// ingestBatches is the dagauditd input: NDJSON request bodies and the
// tenants they name.
type ingestBatches struct {
	bodies       [][]byte
	tenants      []string
	observations int
}

// ingestInput collects the insecure and DAGguise tap streams for the seed
// and encodes them as ingest requests, one tenant per scheme.
func ingestInput(seed int64) (ingestBatches, error) {
	var in ingestBatches
	for _, scheme := range []config.Scheme{config.Insecure, config.DAGguise} {
		s0, s1, err := eval.AuditStreams(scheme, ingestProbes, seed)
		if err != nil {
			return in, err
		}
		tenant := scheme.String()
		// Pair the two secret classes with dense sequence numbers, the
		// order the batch auditor consumes them in.
		var obs []auditd.Observation
		for i := 0; i < len(s0) && i < len(s1); i++ {
			obs = append(obs,
				auditd.Observation{Tenant: tenant, Seq: uint64(2 * i), Secret: 0, Cycle: s0[i].Cycle, Value: s0[i].Value},
				auditd.Observation{Tenant: tenant, Seq: uint64(2*i + 1), Secret: 1, Cycle: s1[i].Cycle, Value: s1[i].Value})
		}
		for lo := 0; lo < len(obs); lo += ingestBatch {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for _, o := range obs[lo:min(lo+ingestBatch, len(obs))] {
				if err := enc.Encode(o); err != nil {
					return in, err
				}
			}
			in.bodies = append(in.bodies, buf.Bytes())
		}
		in.tenants = append(in.tenants, tenant)
		in.observations += len(obs)
	}
	return in, nil
}

// ingest streams the batches through the service handler in process: one
// client, one request in flight. Any status but 200 fails a check; a 429
// also counts its observations as shed. It returns the verdicts body.
func ingest(e *env, l map[string]float64, p *phase, h http.Handler, in ingestBatches) ([]byte, error) {
	start := time.Now()
	var lat []float64
	accepted, shed := 0, 0
	for _, body := range in.bodies {
		p.mark()
		t := time.Now()
		code, resp := serve(h, http.MethodPost, "/v1/ingest", body)
		lat = append(lat, float64(time.Since(t))/1e6)
		var r auditd.IngestResult
		if err := json.Unmarshal(resp, &r); err != nil {
			return nil, fmt.Errorf("ingest response: %w", err)
		}
		e.checks.expect("security/ingest/status", code == http.StatusOK)
		if code == http.StatusTooManyRequests {
			shed += bytes.Count(body, []byte("\n"))
		}
		accepted += r.Accepted
	}
	p.mark()
	for _, tenant := range in.tenants {
		code, _ := serve(h, http.MethodPost, "/v1/tenants/"+tenant+"/flush", nil)
		e.checks.expect("security/ingest/flush/"+tenant, code == http.StatusOK)
	}
	code, raw := serve(h, http.MethodGet, "/v1/verdicts", nil)
	elapsed := time.Since(start).Seconds()
	e.checks.expect("security/ingest/verdicts", code == http.StatusOK)
	e.checks.expect("security/ingest/accepted", accepted == in.observations)

	sort.Float64s(lat)
	l["auditd.ingest_s"] = elapsed
	l["auditd.kobs_per_s"] = float64(accepted) / elapsed / 1e3
	l["auditd.accepted"] = float64(accepted)
	l["auditd.shed"] = float64(shed)
	l["auditd.batches"] = float64(len(lat))
	l["auditd.batch_p50_ms"] = lat[len(lat)/2]
	l["auditd.batch_p90_ms"] = lat[len(lat)*9/10]
	return raw, nil
}

// serve sends one request to the handler without a network.
func serve(h http.Handler, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}
