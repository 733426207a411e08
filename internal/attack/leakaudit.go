package attack

import (
	"context"

	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/rdag"
)

// AuditLeakage runs the two secret patterns under the scheme with audit
// taps on the attacker's probe stream and drives the streaming auditor over
// the paired samples in probe order: window by window, the auditor computes
// calibrated secret-conditioned statistics and flags the first window whose
// leakage exceeds cfg.Budget, together with its cycle range. Both runs use
// cfg.Seed for their shaper, matching the attacker's strongest position
// (identical defense randomness, only the secret differs).
//
// The context is threaded through the auditor's per-window calibration
// loops: a canceled context stops the permutation and bootstrap resampling
// between iterations and surfaces as an error wrapping audit.ErrCanceled.
// attach, when non-nil, is called on each harness before it runs (the
// observability hook of cmd/dagaudit's -metrics / -trace-out flags).
func AuditLeakage(ctx context.Context, scheme config.Scheme, defense rdag.Template,
	dist camouflage.Distribution, secret0, secret1 Pattern, probe Probe, probes int,
	cfg audit.Config, attach func(*Harness)) (*audit.Report, error) {

	auditor, err := audit.New(cfg)
	if err != nil {
		return nil, err
	}
	s0, s1, err := CollectTaps(scheme, defense, dist, secret0, secret1, probe, probes, cfg.Seed, attach)
	if err != nil {
		return nil, err
	}
	// Replay the two tap streams through the auditor pairwise, the order
	// an online deployment would see them; every window is audited the
	// moment both streams cover it.
	for i := 0; i < len(s0) && i < len(s1); i++ {
		if err := auditor.Push(ctx, 0, s0[i]); err != nil {
			return nil, err
		}
		if err := auditor.Push(ctx, 1, s1[i]); err != nil {
			return nil, err
		}
	}
	return auditor.Report(scheme.String()), nil
}

// CollectTaps runs the two secret patterns under the scheme with audit
// taps attached and returns the raw attacker-observable sample streams —
// what an audit service ingests over the wire. Both runs use the given
// shaper seed, matching the attacker's strongest position (identical
// defense randomness, only the secret differs); the streams are therefore
// a pure function of the arguments and replay byte-identically.
func CollectTaps(scheme config.Scheme, defense rdag.Template, dist camouflage.Distribution,
	secret0, secret1 Pattern, probe Probe, probes int, seed int64,
	attach func(*Harness)) (s0, s1 []audit.Sample, err error) {

	run := func(p Pattern) ([]audit.Sample, error) {
		h, err := NewHarness(scheme, defense, dist, seed)
		if err != nil {
			return nil, err
		}
		tap := audit.NewTap()
		h.SetAuditTap(tap)
		if attach != nil {
			attach(h)
		}
		if _, err := h.Run(p, probe, probes, 0); err != nil {
			return nil, err
		}
		return tap.Samples(), nil
	}
	if s0, err = run(secret0); err != nil {
		return nil, nil, err
	}
	if s1, err = run(secret1); err != nil {
		return nil, nil, err
	}
	return s0, s1, nil
}
