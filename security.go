package dagguise

import (
	"dagguise/internal/attack"
	"dagguise/internal/camouflage"
	"dagguise/internal/verify"
)

// AttackPattern is a victim (transmitter) request schedule for leakage
// experiments: closed-loop gaps and bank choices, as in the Figure 5
// running example.
type AttackPattern = attack.Pattern

// AttackProbe configures the attacker (receiver): one outstanding read to
// a fixed bank/row, reissued a fixed gap after each response.
type AttackProbe = attack.Probe

// LeakageResult quantifies attacker-side distinguishability of two victim
// secrets: order-blind and per-position mutual information (bits) plus a
// nearest-neighbour classifier's accuracy.
type LeakageResult = attack.LeakageResult

// CamouflageDistribution is the target inter-injection interval
// distribution of the Camouflage baseline.
type CamouflageDistribution = camouflage.Distribution

// MeasureLeakage runs the two secret patterns under the scheme for several
// trials and quantifies how well an attacker can distinguish them from the
// latencies of its own probes (the Table 1 security comparison).
func MeasureLeakage(scheme Scheme, defense Template, dist CamouflageDistribution,
	secret0, secret1 AttackPattern, probe AttackProbe, probes, trials int) (LeakageResult, error) {
	return attack.MeasureLeakageOpts(scheme, defense, dist, secret0, secret1, probe, probes, trials, attack.MeasureOpts{})
}

// Figure1Primer reproduces the paper's Figure 1 attack example on the
// insecure baseline: the attacker's probe latency reveals whether the
// victim is idle, using a different bank, the same bank and row, or the
// same bank but a different row.
func Figure1Primer(probes int) ([]attack.Figure1Row, error) {
	return attack.Figure1Primer(probes, nil)
}

// VerifyModelConfig parameterises the bit-level model used by the formal
// security verification (§5.1).
type VerifyModelConfig = verify.ModelConfig

// VerifyReport is the outcome of a k-induction verification run.
type VerifyReport = verify.Report

// Counterexample is a decoded property violation.
type Counterexample = verify.Counterexample

// DefaultVerifyModel returns the verified configuration: two banks, a
// weight-2 chain defense rDAG, latency-2 FCFS controller.
func DefaultVerifyModel() VerifyModelConfig { return verify.DefaultModel() }

// VerifySecurity proves (or refutes, with a counterexample) the
// indistinguishability property of §5.2 at unrolling depth k: the base
// step is bounded model checking from reset; the induction step uses the
// public-state strengthening discharged alongside it. All obligations are
// decided by the built-in CDCL SAT solver.
func VerifySecurity(cfg VerifyModelConfig, k int) (VerifyReport, error) {
	v, err := verify.NewVerifier(cfg)
	if err != nil {
		return VerifyReport{}, err
	}
	return v.Verify(k)
}

// MinimalVerifiedK returns the smallest k at which the proof closes.
func MinimalVerifiedK(cfg VerifyModelConfig, maxK int) (int, error) {
	v, err := verify.NewVerifier(cfg)
	if err != nil {
		return 0, err
	}
	return v.MinimalK(maxK)
}

// LeakDetectionDepth returns the smallest bounded-model-checking depth at
// which a (deliberately broken) configuration yields a counterexample.
func LeakDetectionDepth(cfg VerifyModelConfig, maxK int) (int, *Counterexample, error) {
	v, err := verify.NewVerifier(cfg)
	if err != nil {
		return 0, nil, err
	}
	return v.DetectionDepth(maxK)
}
