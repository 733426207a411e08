package verify

import (
	"fmt"

	"dagguise/internal/sat"
	"dagguise/internal/sym"
)

// TraceStep is one decoded cycle of a counterexample.
type TraceStep struct {
	TxValid, TxBank   bool // transmitter request, run 1
	Tx2Valid, Tx2Bank bool // transmitter request, run 2
	RxValid, RxBank   bool // shared receiver request
}

// Counterexample describes a violation of the indistinguishability
// property found by the solver.
type Counterexample struct {
	// K is the unrolling depth checked.
	K int
	// Induction is true when the violation came from the induction step
	// (a possibly-unreachable start state), false for the base step.
	Induction bool
	// Steps is the decoded input trace.
	Steps []TraceStep
}

// String renders the counterexample compactly.
func (c *Counterexample) String() string {
	kind := "base"
	if c.Induction {
		kind = "induction"
	}
	s := fmt.Sprintf("counterexample (%s step, k=%d):\n", kind, c.K)
	for i, st := range c.Steps {
		s += fmt.Sprintf("  cycle %d: ReqTx=%v/%v ReqTx'=%v/%v ReqRx=%v/%v\n",
			i, st.TxValid, st.TxBank, st.Tx2Valid, st.Tx2Bank, st.RxValid, st.RxBank)
	}
	return s
}

// Report is the outcome of a verification run.
type Report struct {
	K              int
	BaseHolds      bool
	InductionHolds bool
	// DeterminismHolds records the side condition that justifies the
	// induction strengthening (see CheckPublicDeterminism).
	DeterminismHolds bool
	// Cex is non-nil when a step failed.
	Cex *Counterexample
	// Vars and Clauses record the size of the largest SAT instance among
	// the steps run: the most variables and the most clauses any of them
	// needed.
	Vars, Clauses int
}

// Holds reports whether the property was proven at this K.
func (r Report) Holds() bool { return r.BaseHolds && r.InductionHolds && r.DeterminismHolds }

// Verifier drives k-induction over the model.
type Verifier struct {
	cfg ModelConfig
}

// NewVerifier builds a verifier for the configuration.
func NewVerifier(cfg ModelConfig) (*Verifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Verifier{cfg: cfg}, nil
}

// unrolled holds the symbolic artefacts of a two-run unrolling.
type unrolled struct {
	b       *sym.Builder
	m       *Model
	inputs1 []Input // per-cycle ReqTx of run 1
	inputs2 []Input // per-cycle ReqTx of run 2 (shares Rx with run 1)
	outEq   []sym.Expr
}

// unroll simulates both runs for k cycles from the given start states,
// sharing the receiver's inputs, and collects per-cycle output equality.
func (v *Verifier) unroll(b *sym.Builder, m *Model, s1, s2 State, k int) unrolled {
	u := unrolled{b: b, m: m}
	for i := 0; i < k; i++ {
		in1 := m.FreeInput()
		in2 := m.FreeInput()
		// The two runs share the receiver's request trace.
		in2.RxValid = in1.RxValid
		in2.RxBank = in1.RxBank
		var o1, o2 Output
		s1, o1 = m.Step(s1, in1)
		s2, o2 = m.Step(s2, in2)
		u.inputs1 = append(u.inputs1, in1)
		u.inputs2 = append(u.inputs2, in2)
		u.outEq = append(u.outEq, m.OutputsEqual(o1, o2))
	}
	return u
}

// check is one SAT obligation's verdict and the size of its instance.
type check struct {
	holds         bool
	cex           *Counterexample
	vars, clauses int
}

// solve asserts the formula and extracts a counterexample on SAT.
func (v *Verifier) solve(u unrolled, violation sym.Expr, k int, induction bool) check {
	cnf := u.b.CNF(violation)
	solver := sat.New()
	solver.EnsureVars(cnf.NumVars)
	ok := true
	for _, cl := range cnf.Clauses {
		if !solver.AddClause(cl...) {
			ok = false
			break
		}
	}
	if !ok || solver.Solve(cnf.Lit(violation)) == sat.Unsat {
		return check{holds: true, vars: solver.NumVars(), clauses: len(cnf.Clauses)}
	}
	cex := &Counterexample{K: k, Induction: induction}
	readBit := func(e sym.Expr) bool {
		if l, found := cnf.LitOf(e); found {
			val := solver.Value(abs(l))
			if l < 0 {
				val = !val
			}
			return val
		}
		return false
	}
	for i := range u.inputs1 {
		cex.Steps = append(cex.Steps, TraceStep{
			TxValid:  readBit(u.inputs1[i].TxValid),
			TxBank:   readBit(u.inputs1[i].TxBank),
			Tx2Valid: readBit(u.inputs2[i].TxValid),
			Tx2Bank:  readBit(u.inputs2[i].TxBank),
			RxValid:  readBit(u.inputs1[i].RxValid),
			RxBank:   readBit(u.inputs1[i].RxBank),
		})
	}
	return check{cex: cex, vars: solver.NumVars(), clauses: len(cnf.Clauses)}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// CheckBase performs bounded model checking of P(reset, k): from reset, no
// pair of transmitter traces makes the receiver's responses differ within
// k cycles.
func (v *Verifier) CheckBase(k int) (bool, *Counterexample, error) {
	c, err := v.base(k)
	return c.holds, c.cex, err
}

func (v *Verifier) base(k int) (check, error) {
	b := sym.NewBuilder()
	m, err := NewModel(v.cfg, b)
	if err != nil {
		return check{}, err
	}
	u := v.unroll(b, m, m.ResetState(), m.ResetState(), k)
	// Violation: some cycle's outputs differ.
	violation := sym.False
	for _, eq := range u.outEq {
		violation = b.Or(violation, eq.Not())
	}
	return v.solve(u, violation, k, false), nil
}

// pairedStates builds the induction start states: a fully symbolic state
// S and a second state S' sharing all of S's public components, with only
// the transmitter-private pending counters free. This strengthening is
// required for induction to close, and it is itself discharged by
// CheckPublicDeterminism: the public state is a deterministic function of
// the public history (defense rDAG schedule + shared receiver trace), so
// any two runs of the real property — which start from the same reset
// state and share ReqRx — always agree on it. Without the strengthening,
// plain two-state k-induction can never close for this system: a shaper
// phase difference between unconstrained states stays silent for as long
// as the receiver refrains from probing.
func (v *Verifier) pairedStates(m *Model) (State, State) {
	s1 := m.FreeState()
	s2 := s1
	s2.Pending = nil
	for i := 0; i < m.cfg.Banks; i++ {
		s2.Pending = append(s2.Pending, m.b.VecVar(m.pendBits))
	}
	return s1, s2
}

// CheckInduction performs the induction step: from any well-formed pair of
// states agreeing on the public components (see pairedStates) whose
// outputs agree for k cycles, the outputs also agree at cycle k+1.
func (v *Verifier) CheckInduction(k int) (bool, *Counterexample, error) {
	c, err := v.induction(k)
	return c.holds, c.cex, err
}

func (v *Verifier) induction(k int) (check, error) {
	b := sym.NewBuilder()
	m, err := NewModel(v.cfg, b)
	if err != nil {
		return check{}, err
	}
	s1, s2 := v.pairedStates(m)
	u := v.unroll(b, m, s1, s2, k+1)
	assume := b.And(m.WellFormed(s1), m.WellFormed(s2))
	for _, eq := range u.outEq[:k] {
		assume = b.And(assume, eq)
	}
	violation := b.And(assume, u.outEq[k].Not())
	return v.solve(u, violation, k, true), nil
}

// publicEqual builds equality of the public (receiver-influencing) state
// components of two states — everything except the private pending
// counters.
func (m *Model) publicEqual(a, b State) sym.Expr {
	bd := m.b
	eq := bd.AndAll(
		bd.Eq(a.Step, b.Step),
		bd.Eq(a.Busy, b.Busy),
		bd.VecEq(a.Remaining, b.Remaining),
		bd.Eq(a.ServDom, b.ServDom),
		bd.Eq(a.ServBank, b.ServBank),
		bd.Eq(a.ServSeq, b.ServSeq),
	)
	for q := range a.Waiting {
		eq = bd.AndAll(eq,
			bd.Eq(a.Waiting[q], b.Waiting[q]),
			bd.VecEq(a.Countdown[q], b.Countdown[q]))
	}
	for i := range a.QValid {
		eq = bd.AndAll(eq,
			bd.Eq(a.QValid[i], b.QValid[i]),
			bd.Eq(a.QDom[i], b.QDom[i]),
			bd.Eq(a.QBank[i], b.QBank[i]),
			bd.Eq(a.QSeq[i], b.QSeq[i]))
	}
	return eq
}

// CheckPublicDeterminism discharges the strengthening used by
// CheckInduction: if two well-formed states agree on the public
// components, then after one step with arbitrary (different) transmitter
// inputs and a shared receiver input, the public components still agree —
// and the receiver outputs are equal. Together with the base case (both
// runs of the property start from the same reset state) this proves the
// public state stays shared along the entire real execution.
func (v *Verifier) CheckPublicDeterminism() (bool, *Counterexample, error) {
	c, err := v.determinism()
	return c.holds, c.cex, err
}

func (v *Verifier) determinism() (check, error) {
	b := sym.NewBuilder()
	m, err := NewModel(v.cfg, b)
	if err != nil {
		return check{}, err
	}
	s1, s2 := v.pairedStates(m)
	in1 := m.FreeInput()
	in2 := m.FreeInput()
	in2.RxValid = in1.RxValid
	in2.RxBank = in1.RxBank
	n1, o1 := m.Step(s1, in1)
	n2, o2 := m.Step(s2, in2)
	assume := b.And(m.WellFormed(s1), m.WellFormed(s2))
	preserved := b.And(m.publicEqual(n1, n2), m.OutputsEqual(o1, o2))
	violation := b.And(assume, preserved.Not())
	u := unrolled{b: b, m: m, inputs1: []Input{in1}, inputs2: []Input{in2}}
	return v.solve(u, violation, 1, true), nil
}

// DetectionDepth returns the smallest base-step depth at which the
// verifier produces a counterexample for a (leaky) configuration, or an
// error if none is found up to maxK. This is the "cycles for a request to
// traverse the system" quantity the paper relates its minimal K to.
func (v *Verifier) DetectionDepth(maxK int) (int, *Counterexample, error) {
	for k := 1; k <= maxK; k++ {
		ok, cex, err := v.CheckBase(k)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			return k, cex, nil
		}
	}
	return 0, nil, fmt.Errorf("verify: no counterexample up to k=%d", maxK)
}

// Verify runs the base step, the induction step and the public-state
// determinism side condition at depth k, stopping at the first that fails.
func (v *Verifier) Verify(k int) (Report, error) {
	rep := Report{K: k}
	steps := []struct {
		run   func() (check, error)
		holds *bool
	}{
		{func() (check, error) { return v.base(k) }, &rep.BaseHolds},
		{func() (check, error) { return v.induction(k) }, &rep.InductionHolds},
		{v.determinism, &rep.DeterminismHolds},
	}
	for _, st := range steps {
		c, err := st.run()
		if err != nil {
			return rep, err
		}
		*st.holds = c.holds
		rep.Vars = max(rep.Vars, c.vars)
		rep.Clauses = max(rep.Clauses, c.clauses)
		if !c.holds {
			rep.Cex = c.cex
			break
		}
	}
	return rep, nil
}

// MinimalK searches for the smallest k at which both steps hold, following
// the paper's methodology of incrementing k until the induction step
// succeeds. It returns an error if no k up to maxK works.
func (v *Verifier) MinimalK(maxK int) (int, error) {
	for k := 1; k <= maxK; k++ {
		rep, err := v.Verify(k)
		if err != nil {
			return 0, err
		}
		if !rep.BaseHolds {
			return 0, fmt.Errorf("verify: base step failed at k=%d — the property itself is false:\n%s", k, rep.Cex)
		}
		if rep.InductionHolds {
			return k, nil
		}
	}
	return 0, fmt.Errorf("verify: induction did not close by k=%d", maxK)
}
