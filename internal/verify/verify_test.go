package verify

import (
	"math/rand"
	"testing"

	"dagguise/internal/sym"
)

func TestModelConfigValidate(t *testing.T) {
	bad := []ModelConfig{
		{Banks: 3, Weight: 1, MemLatency: 1, QueueDepth: 1, PendingMax: 1},
		{Banks: 1, Weight: 0, MemLatency: 1, QueueDepth: 1, PendingMax: 1},
		{Banks: 1, Weight: 1, MemLatency: 0, QueueDepth: 1, PendingMax: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

// concreteSim runs the symbolic model with all-constant inputs by building
// the circuit and evaluating it — used to sanity-check the model's
// behaviour against hand-computed expectations.
type concreteSim struct {
	t *testing.T
	b *sym.Builder
	m *Model
	s State
}

func newConcreteSim(t *testing.T, cfg ModelConfig) *concreteSim {
	b := sym.NewBuilder()
	m, err := NewModel(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	return &concreteSim{t: t, b: b, m: m, s: m.ResetState()}
}

func (c *concreteSim) step(txValid bool, txBank uint64, rxValid bool, rxBank uint64) (respValid bool, respBank uint64) {
	in := Input{
		TxValid: c.b.Const(txValid), TxBank: c.b.Const(txBank == 1),
		RxValid: c.b.Const(rxValid), RxBank: c.b.Const(rxBank == 1),
	}
	var out Output
	c.s, out = c.m.Step(c.s, in)
	// All-constant circuit: evaluation needs no assignment.
	respValid = c.b.Eval(out.RespValid, nil)
	respBank = 0
	if c.b.Eval(out.RespBank, nil) {
		respBank = 1
	}
	return
}

func TestModelServesReceiverRequest(t *testing.T) {
	sim := newConcreteSim(t, DefaultModel())
	// Cycle 0: Rx sends a request to bank 1. The shaper also emits its
	// first request (to bank 0) the same cycle, ahead of Rx in FCFS.
	if v, _ := sim.step(false, 0, true, 1); v {
		t.Fatal("response too early")
	}
	// Service: shaper request pops at cycle 1, completes at cycle 3;
	// Rx pops at 3, completes at 5.
	var got []struct {
		cycle uint64
		bank  uint64
	}
	for cyc := uint64(1); cyc < 12; cyc++ {
		if v, bank := sim.step(false, 0, false, 0); v {
			got = append(got, struct{ cycle, bank uint64 }{cyc, bank})
		}
	}
	if len(got) != 1 {
		t.Fatalf("receiver responses = %d, want 1 (got %v)", len(got), got)
	}
	if got[0].bank != 1 {
		t.Fatalf("response bank = %d, want 1", got[0].bank)
	}
}

func TestModelShaperEmitsPeriodically(t *testing.T) {
	// With no receiver traffic, the shaper's chain still occupies the
	// controller periodically; receiver requests arriving later see a
	// deterministic pattern. Here we just confirm the model is live: a
	// receiver request is eventually served even with heavy Tx input.
	sim := newConcreteSim(t, DefaultModel())
	sim.step(true, 0, true, 0)
	served := false
	for i := 0; i < 40 && !served; i++ {
		v, _ := sim.step(true, uint64(i%2), false, 0)
		served = served || v
	}
	if !served {
		t.Fatal("receiver starved in the model")
	}
}

func TestBaseStepHoldsForSecureModel(t *testing.T) {
	v, err := NewVerifier(DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 6} {
		ok, cex, err := v.CheckBase(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("base step failed at k=%d:\n%s", k, cex)
		}
	}
}

func TestLeakyModelCaught(t *testing.T) {
	cfg := DefaultModel()
	cfg.Leaky = true
	v, err := NewVerifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ok, cex, err := v.CheckBase(8)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("base step passed for the deliberately leaky shaper")
	}
	if cex == nil || len(cex.Steps) != 8 {
		t.Fatalf("counterexample missing or wrong length: %v", cex)
	}
	// The two transmitter traces must actually differ somewhere.
	differ := false
	for _, st := range cex.Steps {
		if st.TxValid != st.Tx2Valid || st.TxBank != st.Tx2Bank {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatalf("counterexample with identical transmitter traces:\n%s", cex)
	}
	if cex.String() == "" {
		t.Fatal("empty counterexample rendering")
	}
}

func TestMinimalKProvesProperty(t *testing.T) {
	v, err := NewVerifier(DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	k, err := v.MinimalK(16)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("minimal k = %d", k)
	if k < 1 {
		t.Fatalf("invalid k = %d", k)
	}
}

func TestPublicDeterminismHolds(t *testing.T) {
	v, err := NewVerifier(DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	ok, cex, err := v.CheckPublicDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("public state is not input-deterministic:\n%s", cex)
	}
}

func TestBankLeakUnobservableInFCFSModel(t *testing.T) {
	// The second bug class: correct timing, wrong banks (LeakyBank). In
	// the §5.1 simplified model — a single FCFS server with constant
	// latency — bank choice cannot influence the receiver's timing, so
	// the checker must find NO counterexample: the property genuinely
	// holds for this model even with the bank bug. This documents the
	// model's scope (the same scope as the paper's Rosette model): bank-
	// contention channels are outside it and are instead demonstrated on
	// the full simulator (internal/attack catches bank leaks, e.g. in
	// Camouflage). The proof still closes for the buggy-bank shaper.
	cfg := DefaultModel()
	cfg.LeakyBank = true
	v, err := NewVerifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.DetectionDepth(10); err == nil {
		t.Fatal("FCFS constant-latency model reported a bank-timing counterexample; " +
			"the model gained bank-dependent timing — update this test and EXPERIMENTS.md")
	}
	ok, _, err := v.CheckBase(8)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("base step failed for the bank-leaky shaper in a bank-blind model")
	}
}

func TestLeakyDetectionDepth(t *testing.T) {
	cfg := DefaultModel()
	cfg.Leaky = true
	v, err := NewVerifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	depth, cex, err := v.DetectionDepth(16)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("leak detected at base depth %d", depth)
	if cex == nil {
		t.Fatal("no counterexample returned")
	}
	// The leak needs at least a request's traversal through the system
	// (service latency) before it is observable.
	if depth < 3 {
		t.Fatalf("detection depth %d below the system traversal time", depth)
	}
}

func TestVerifyReportAtProvenK(t *testing.T) {
	v, _ := NewVerifier(DefaultModel())
	k, err := v.MinimalK(16)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Verify(k)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds() {
		t.Fatalf("Verify(%d) = %+v, want proof", k, rep)
	}
	if rep.Vars <= 0 || rep.Clauses <= 0 {
		t.Fatalf("Verify(%d) reports a %d-variable, %d-clause largest instance, want positive sizes", k, rep.Vars, rep.Clauses)
	}
	next, err := v.Verify(k + 1)
	if err != nil {
		t.Fatal(err)
	}
	if next.Vars < rep.Vars || next.Clauses < rep.Clauses {
		t.Fatalf("largest instance shrank from k=%d (%d vars, %d clauses) to k=%d (%d vars, %d clauses)",
			k, rep.Vars, rep.Clauses, k+1, next.Vars, next.Clauses)
	}
}

func TestSingleBankModel(t *testing.T) {
	cfg := DefaultModel()
	cfg.Banks = 1
	v, err := NewVerifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := v.MinimalK(16)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("single-bank minimal k = %d", k)
}

func TestCounterexampleReplays(t *testing.T) {
	// Every SAT counterexample must reproduce on the concrete model —
	// this validates the Tseitin encoding and the solver end to end.
	for _, cfg := range []ModelConfig{
		{Banks: 2, Sequences: 1, Weight: 2, MemLatency: 2, QueueDepth: 2, PendingMax: 3, Leaky: true},
		{Banks: 1, Sequences: 1, Weight: 3, MemLatency: 2, QueueDepth: 2, PendingMax: 3, Leaky: true},
		{Banks: 2, Sequences: 2, Weight: 2, MemLatency: 2, QueueDepth: 2, PendingMax: 3, Leaky: true},
	} {
		v, err := NewVerifier(cfg)
		if err != nil {
			t.Fatal(err)
		}
		depth, cex, err := v.DetectionDepth(20)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		diffAt, err := v.Replay(cex)
		if err != nil {
			t.Fatalf("%+v: counterexample at depth %d failed to replay: %v", cfg, depth, err)
		}
		if diffAt >= depth {
			t.Fatalf("first difference at cycle %d, beyond the %d-cycle window", diffAt, depth)
		}
	}
}

func TestReplayRejectsBadInput(t *testing.T) {
	v, _ := NewVerifier(DefaultModel())
	if _, err := v.Replay(nil); err == nil {
		t.Fatal("nil counterexample accepted")
	}
	if _, err := v.Replay(&Counterexample{Induction: true}); err == nil {
		t.Fatal("induction counterexample accepted for replay")
	}
	// A bogus all-equal counterexample must be rejected as
	// non-reproducing.
	bogus := &Counterexample{K: 3, Steps: make([]TraceStep, 3)}
	if _, err := v.Replay(bogus); err == nil {
		t.Fatal("non-reproducing counterexample accepted")
	}
}

func TestTwoSequenceModelProven(t *testing.T) {
	// The §5.1 note that the tool extends to other rDAGs, realised: the
	// verified defense rDAG family includes two parallel chains (the
	// Figure 6 template structure), each pinned to its own bank.
	cfg := DefaultModel()
	cfg.Sequences = 2
	v, err := NewVerifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := v.MinimalK(10)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Verify(k)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds() {
		t.Fatalf("two-sequence proof failed at k=%d: %+v", k, rep)
	}
	// And the leaky two-sequence variant is still caught.
	cfg.Leaky = true
	lv, _ := NewVerifier(cfg)
	depth, cex, err := lv.DetectionDepth(16)
	if err != nil {
		t.Fatal(err)
	}
	if cex == nil {
		t.Fatalf("leaky two-sequence shaper not caught (depth %d)", depth)
	}
}

func TestTwoSequencesRequireTwoBanks(t *testing.T) {
	cfg := DefaultModel()
	cfg.Sequences = 2
	cfg.Banks = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("2 sequences with 1 bank accepted")
	}
}

func TestVerifyAcrossConfigurations(t *testing.T) {
	// The proof must close for a range of model parameters, not just the
	// defaults — weights, latencies and queue depths change the state
	// encoding widths and the transition structure.
	configs := []ModelConfig{
		{Banks: 1, Weight: 1, MemLatency: 1, QueueDepth: 1, PendingMax: 1},
		{Banks: 2, Weight: 3, MemLatency: 2, QueueDepth: 2, PendingMax: 3},
		{Banks: 2, Weight: 2, MemLatency: 4, QueueDepth: 3, PendingMax: 2},
		{Banks: 1, Weight: 5, MemLatency: 3, QueueDepth: 2, PendingMax: 7},
	}
	for i, cfg := range configs {
		v, err := NewVerifier(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		k, err := v.MinimalK(8)
		if err != nil {
			t.Fatalf("config %d (%+v): %v", i, cfg, err)
		}
		rep, err := v.Verify(k)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if !rep.Holds() {
			t.Fatalf("config %d (%+v): proof does not hold at k=%d", i, cfg, k)
		}
	}
}

func TestLeakyVariantsCaughtAcrossConfigurations(t *testing.T) {
	for _, cfg := range []ModelConfig{
		{Banks: 1, Weight: 2, MemLatency: 2, QueueDepth: 2, PendingMax: 3, Leaky: true},
		{Banks: 2, Weight: 4, MemLatency: 3, QueueDepth: 2, PendingMax: 3, Leaky: true},
	} {
		v, err := NewVerifier(cfg)
		if err != nil {
			t.Fatal(err)
		}
		depth, cex, err := v.DetectionDepth(20)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if cex == nil || depth == 0 {
			t.Fatalf("%+v: leak not detected", cfg)
		}
	}
}

// TestModelMatchesRandomisedDifferentialRuns drives the concrete model
// with random shared Rx traffic and two different Tx traces, asserting the
// Rx outputs match — a randomised shadow of the theorem.
func TestModelMatchesRandomisedDifferentialRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		simA := newConcreteSim(t, DefaultModel())
		simB := newConcreteSim(t, DefaultModel())
		for cyc := 0; cyc < 60; cyc++ {
			rxV := rng.Intn(3) == 0
			rxB := uint64(rng.Intn(2))
			vA, bA := simA.step(rng.Intn(2) == 0, uint64(rng.Intn(2)), rxV, rxB)
			vB, bB := simB.step(rng.Intn(2) == 0, uint64(rng.Intn(2)), rxV, rxB)
			if vA != vB || (vA && bA != bB) {
				t.Fatalf("trial %d cycle %d: receiver outputs differ (%v/%d vs %v/%d)",
					trial, cyc, vA, bA, vB, bB)
			}
		}
	}
}
