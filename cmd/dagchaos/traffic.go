package main

// Traffic-generator mode: with -target set, dagchaos stops torturing the
// simulator and instead drives a running dagauditd instance. It derives
// deterministic observation streams — real attacker tap streams from the
// simulated schemes (-serve-schemes) plus synthetic leaky/clean tenants
// (-synth-tenants) — and streams them over HTTP through the auditd client.
// Because every observation carries its sequence number, the generator is
// crash-agnostic: rerunning it against a restarted server replays the
// stream, the server dup-acks what it already has, and the final verdicts
// converge to the same bytes. -gate turns the fetched verdicts into an
// exit code, giving CI a one-line end-to-end leakage check through the
// service path.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dagguise/internal/audit"
	"dagguise/internal/auditd"
	"dagguise/internal/ckpt"
	"dagguise/internal/config"
	"dagguise/internal/eval"
	"dagguise/internal/rng"
)

// trafficOpts are the -target mode flags.
type trafficOpts struct {
	target       string
	serveSchemes string
	synthTenants int
	synthPairs   int
	probes       int
	batch        int
	verdictsOut  string
	gate         string
	noFlush      bool
	timeout      time.Duration
}

// registerTrafficFlags declares the traffic-mode flags on the default
// flag set; main dispatches to runTraffic when -target is non-empty.
func registerTrafficFlags() *trafficOpts {
	var o trafficOpts
	flag.StringVar(&o.target, "target", "", "dagauditd base URL; switches dagchaos into audit-service traffic mode")
	flag.StringVar(&o.serveSchemes, "serve-schemes", "", "comma-separated schemes to stream real simulated tap streams for (e.g. insecure,dagguise)")
	flag.IntVar(&o.synthTenants, "synth-tenants", 0, "additional synthetic tenants (alternating leaky/clean)")
	flag.IntVar(&o.synthPairs, "synth-pairs", 150, "sample pairs per synthetic tenant")
	flag.IntVar(&o.probes, "probes", 300, "probes per scheme tap stream")
	flag.IntVar(&o.batch, "batch", 25, "observations per ingest request")
	flag.StringVar(&o.verdictsOut, "verdicts-out", "", "write the raw verdict JSON to this path")
	flag.StringVar(&o.gate, "gate", "", "expectations like insecure=leak,dagguise=clean; unmet expectations fail the run")
	flag.BoolVar(&o.noFlush, "no-flush", false, "skip flushing tenants' final partial windows")
	flag.DurationVar(&o.timeout, "traffic-timeout", 5*time.Minute, "overall traffic-mode deadline")
	return &o
}

// tenantStream is one tenant's full deterministic observation sequence.
type tenantStream struct {
	name string
	obs  []auditd.Observation
}

// interleave zips the two secret-class sample streams into the wire
// format with dense sequence numbers — the same pairing order the batch
// auditor uses, so the service reproduces its verdicts.
func interleave(tenant string, s0, s1 []audit.Sample) []auditd.Observation {
	n := len(s0)
	if len(s1) < n {
		n = len(s1)
	}
	out := make([]auditd.Observation, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out,
			auditd.Observation{Tenant: tenant, Seq: uint64(2 * i), Secret: 0, Cycle: s0[i].Cycle, Value: s0[i].Value},
			auditd.Observation{Tenant: tenant, Seq: uint64(2*i + 1), Secret: 1, Cycle: s1[i].Cycle, Value: s1[i].Value},
		)
	}
	return out
}

// synthStream fabricates a deterministic tenant: even indices leak (the
// two classes sit ~300 cycles apart), odd ones are clean.
func synthStream(idx, pairs int, baseSeed int64) tenantStream {
	leaky := idx%2 == 0
	kind := "clean"
	if leaky {
		kind = "leaky"
	}
	name := fmt.Sprintf("synth-%s-%d", kind, idx)
	r := rng.New(rng.Derive(baseSeed, name))
	s0 := make([]audit.Sample, pairs)
	s1 := make([]audit.Sample, pairs)
	for i := 0; i < pairs; i++ {
		base := uint64(100 + r.Intn(16))
		alt := base
		if leaky {
			alt = uint64(400 + r.Intn(16))
		} else {
			alt = uint64(100 + r.Intn(16))
		}
		s0[i] = audit.Sample{Cycle: uint64(10 * i), Value: base}
		s1[i] = audit.Sample{Cycle: uint64(10*i + 5), Value: alt}
	}
	return tenantStream{name: name, obs: interleave(name, s0, s1)}
}

// buildStreams assembles every tenant's stream up front, so the whole
// campaign is a pure function of the flags and replays identically.
func buildStreams(o *trafficOpts, baseSeed int64) ([]tenantStream, error) {
	var streams []tenantStream
	if o.serveSchemes != "" {
		for _, name := range strings.Split(o.serveSchemes, ",") {
			name = strings.TrimSpace(name)
			scheme, err := config.ParseScheme(name)
			if err != nil {
				return nil, fmt.Errorf("-serve-schemes: %w", err)
			}
			fmt.Fprintf(os.Stderr, "dagchaos: collecting %s tap streams (%d probes)\n", name, o.probes)
			s0, s1, err := eval.AuditStreams(scheme, o.probes, baseSeed)
			if err != nil {
				return nil, err
			}
			streams = append(streams, tenantStream{name: name, obs: interleave(name, s0, s1)})
		}
	}
	for i := 0; i < o.synthTenants; i++ {
		streams = append(streams, synthStream(i, o.synthPairs, baseSeed))
	}
	if len(streams) == 0 {
		return nil, fmt.Errorf("traffic mode needs -serve-schemes and/or -synth-tenants")
	}
	return streams, nil
}

// runTraffic executes the campaign and returns the process exit code.
func runTraffic(o *trafficOpts, baseSeed int64) int {
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()

	streams, err := buildStreams(o, baseSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos:", err)
		return 1
	}

	for _, st := range streams {
		c := &auditd.Client{
			Base: o.target, BatchSize: o.batch,
			Seed: rng.Derive(baseSeed, st.name), Retries: 60,
		}
		res, err := c.Stream(ctx, st.obs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dagchaos: stream %s: %v\n", st.name, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "dagchaos: %s: %d accepted, %d duplicates, %d retries, %d sheds\n",
			st.name, res.Accepted, res.Duplicates, res.Retries, res.Shed)
		if !o.noFlush {
			starved, err := c.Flush(ctx, st.name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dagchaos: flush %s: %v\n", st.name, err)
				return 1
			}
			if starved {
				fmt.Fprintf(os.Stderr, "dagchaos: %s: final window starved (insufficient samples)\n", st.name)
			}
		}
	}

	c := &auditd.Client{Base: o.target}
	raw, vr, err := c.Verdicts(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos:", err)
		return 1
	}
	if o.verdictsOut != "" {
		if err := ckpt.WriteFileAtomic(o.verdictsOut, raw); err != nil {
			fmt.Fprintln(os.Stderr, "dagchaos:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "dagchaos: wrote verdicts to %s\n", o.verdictsOut)
	}
	for _, v := range vr.Tenants {
		state := "within budget"
		if !v.WithinBudget {
			state = fmt.Sprintf("LEAK (first window %d, max MI %.3f bits)", v.FirstExceeded, v.MaxMI)
		}
		fmt.Printf("%-20s windows=%-3d tripped=%-3d %s\n", v.Tenant, v.Windows, v.Tripped, state)
	}
	if o.gate != "" {
		if err := checkGate(o.gate, vr); err != nil {
			fmt.Fprintln(os.Stderr, "dagchaos: gate:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "dagchaos: gate passed")
	}
	return 0
}

// checkGate enforces tenant=leak / tenant=clean expectations against the
// fetched verdicts.
func checkGate(gate string, vr *auditd.VerdictsResponse) error {
	byName := make(map[string]auditd.TenantVerdict, len(vr.Tenants))
	for _, v := range vr.Tenants {
		byName[v.Tenant] = v
	}
	for _, term := range strings.Split(gate, ",") {
		name, want, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok || (want != "leak" && want != "clean") {
			return fmt.Errorf("bad gate term %q (want tenant=leak or tenant=clean)", term)
		}
		v, found := byName[name]
		if !found {
			return fmt.Errorf("tenant %q has no verdict", name)
		}
		switch {
		case v.Quarantined:
			return fmt.Errorf("tenant %q is quarantined: %s", name, v.QuarantineReason)
		case want == "leak" && v.WithinBudget:
			return fmt.Errorf("tenant %q expected to leak but stayed within budget (%d windows)", name, v.Windows)
		case want == "clean" && !v.WithinBudget:
			return fmt.Errorf("tenant %q expected clean but exceeded budget at window %d (max MI %.3f bits)",
				name, v.FirstExceeded, v.MaxMI)
		}
	}
	return nil
}
