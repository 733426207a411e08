package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// RuleKind selects how a Rule condenses a series into one value.
type RuleKind string

const (
	// RuleThreshold compares the most recent point against Threshold.
	RuleThreshold RuleKind = "threshold"
	// RuleBurnRate compares the mean of the last Window points against
	// Threshold — with a 0/1 indicator series (window exceeded its
	// budget or not) this is the classic SLO burn rate: the fraction of
	// the recent budget windows that burned.
	RuleBurnRate RuleKind = "burn_rate"
)

// Rule is one SLO alerting rule evaluated against TSDB series. Series
// may end in "*", matching every series with that prefix (so one rule
// covers e.g. leak_burn/<every tenant>); each match is tracked and
// deduplicated independently.
type Rule struct {
	// Name identifies the rule in alerts and logs.
	Name string `json:"name"`
	// Series is the series name or trailing-* prefix pattern.
	Series string `json:"series"`
	// Kind is threshold or burn_rate (default threshold).
	Kind RuleKind `json:"kind,omitempty"`
	// Op is the comparison: ">=" (default) or "<=".
	Op string `json:"op,omitempty"`
	// Threshold is the boundary value.
	Threshold float64 `json:"threshold"`
	// Window is the burn-rate lookback in points (default 5).
	Window int `json:"window,omitempty"`
	// MinPoints suppresses evaluation until the series holds at least
	// this many points (default 1), so cold series cannot flap.
	MinPoints int `json:"min_points,omitempty"`
	// Severity labels alerts from this rule: "info", "warning" (default)
	// or "critical". The webhook body and /v1/alerts carry it.
	Severity string `json:"severity,omitempty"`
}

// Severity levels, weakest first.
const (
	SeverityInfo     = "info"
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// Validate checks one rule, applying defaults in place.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("obs: rule without a name")
	}
	if r.Series == "" {
		return fmt.Errorf("obs: rule %q without a series", r.Name)
	}
	switch r.Kind {
	case "":
		r.Kind = RuleThreshold
	case RuleThreshold, RuleBurnRate:
	default:
		return fmt.Errorf("obs: rule %q has unknown kind %q", r.Name, r.Kind)
	}
	switch r.Op {
	case "":
		r.Op = ">="
	case ">=", "<=":
	default:
		return fmt.Errorf("obs: rule %q has unknown op %q (want >= or <=)", r.Name, r.Op)
	}
	if r.Window <= 0 {
		r.Window = 5
	}
	if r.MinPoints <= 0 {
		r.MinPoints = 1
	}
	switch r.Severity {
	case "":
		r.Severity = SeverityWarning
	case SeverityInfo, SeverityWarning, SeverityCritical:
	default:
		return fmt.Errorf("obs: rule %q has unknown severity %q (want info, warning or critical)", r.Name, r.Severity)
	}
	return nil
}

// DefaultRules is the stock SLO catalog behind dagauditd's alerts (the
// webhook and /v1/alerts). Each rule watches one of the three series
// families the daemon feeds, and no two rules' series patterns overlap,
// so each series fires only its own rule:
//
//   - leak_burn/<tenant>: one 0/1 point per audited window;
//   - queue_sat/<shard>: queue fullness fraction per processed batch;
//   - retry_rate/<shard>: 0/1 duplicate indicator per batch.
//
// Override with a -alert-rules JSON file when the defaults don't fit.
func DefaultRules() []Rule {
	rules := []Rule{
		{Name: "leak-budget-burn", Series: "leak_burn/*", Kind: RuleBurnRate, Threshold: 0.5, Window: 4, MinPoints: 2, Severity: SeverityCritical},
		{Name: "shard-queue-saturation", Series: "queue_sat/*", Kind: RuleThreshold, Threshold: 0.75},
		{Name: "retry-rate", Series: "retry_rate/*", Kind: RuleBurnRate, Threshold: 0.5, Window: 8, MinPoints: 4},
	}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			panic(err) // the stock catalog must be valid by construction
		}
	}
	return rules
}

// ParseRules decodes a JSON rule list (the -alert-rules file format)
// and validates every entry.
func ParseRules(data []byte) ([]Rule, error) {
	var rules []Rule
	if err := strictJSON(data, &rules); err != nil {
		return nil, fmt.Errorf("obs: parsing rules: %w", err)
	}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, err
		}
	}
	return rules, nil
}

func strictJSON(data []byte, v any) error {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Alert is one edge of a rule's state machine: a matched series
// crossing into violation ("firing") or back out ("resolved"). Seq is a
// per-engine monotonic sequence number; T is the logical time of the
// evaluation that produced the edge. Both are deterministic.
type Alert struct {
	Seq       uint64  `json:"seq"`
	T         uint64  `json:"t"`
	Rule      string  `json:"rule"`
	Series    string  `json:"series"`
	State     string  `json:"state"` // "firing" | "resolved"
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Op        string  `json:"op"`
	// Severity copies the rule's severity onto each edge.
	Severity string `json:"severity,omitempty"`
}

// Engine evaluates rules against a TSDB and emits deduplicated alert
// edges: a (rule, series) pair fires once when it crosses into
// violation, stays silent while the violation persists, emits a
// "resolved" edge when it recovers, and may fire again after that.
// Safe for concurrent use; nil receivers are no-ops.
type Engine struct {
	mu      sync.Mutex
	db      *TSDB
	rules   []Rule
	active  map[string]bool
	nextSeq uint64
	history []Alert
	histCap int
}

// DefaultAlertHistory is how many alert edges an engine retains for
// /v1/alerts and checkpointing.
const DefaultAlertHistory = 256

// NewEngine builds an engine over db with the given rules (each must
// already Validate; NewEngine validates again defensively and panics on
// a bad rule, which is a programming error at this layer).
func NewEngine(db *TSDB, rules []Rule) *Engine {
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			panic(err)
		}
	}
	return &Engine{
		db:      db,
		rules:   rules,
		active:  make(map[string]bool),
		nextSeq: 1,
		histCap: DefaultAlertHistory,
	}
}

// Rules returns a copy of the engine's rule set.
func (e *Engine) Rules() []Rule {
	if e == nil {
		return nil
	}
	return append([]Rule(nil), e.rules...)
}

// Eval evaluates every rule at logical time t and returns the new alert
// edges (nil when nothing changed). No-op on nil.
func (e *Engine) Eval(t uint64) []Alert {
	if e == nil || e.db == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var edges []Alert
	for i := range e.rules {
		r := &e.rules[i]
		for _, series := range e.matchSeries(r.Series) {
			value, ok := e.ruleValue(r, series)
			if !ok {
				continue
			}
			violated := compare(value, r.Op, r.Threshold)
			key := r.Name + "|" + series
			switch {
			case violated && !e.active[key]:
				e.active[key] = true
				edges = append(edges, e.record(Alert{
					T: t, Rule: r.Name, Series: series, State: "firing",
					Value: value, Threshold: r.Threshold, Op: r.Op, Severity: r.Severity,
				}))
			case !violated && e.active[key]:
				delete(e.active, key)
				edges = append(edges, e.record(Alert{
					T: t, Rule: r.Name, Series: series, State: "resolved",
					Value: value, Threshold: r.Threshold, Op: r.Op, Severity: r.Severity,
				}))
			}
		}
	}
	return edges
}

// matchSeries expands a rule's series pattern. Caller holds e.mu.
func (e *Engine) matchSeries(pattern string) []string {
	if !strings.HasSuffix(pattern, "*") {
		return []string{pattern}
	}
	prefix := strings.TrimSuffix(pattern, "*")
	var out []string
	for _, name := range e.dbNamesLocked() {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	return out
}

// dbNamesLocked lists series names without re-entering e.mu (TSDB has
// its own lock; ordering is db.mu < e.mu never holds since the engine
// only calls into the TSDB, never the reverse).
func (e *Engine) dbNamesLocked() []string {
	return e.db.Names()
}

// ruleValue condenses the series for one rule. Caller holds e.mu.
func (e *Engine) ruleValue(r *Rule, series string) (float64, bool) {
	if e.db.Len(series) < r.MinPoints {
		return 0, false
	}
	switch r.Kind {
	case RuleBurnRate:
		pts := e.db.Window(series, r.Window)
		if len(pts) == 0 {
			return 0, false
		}
		var sum float64
		for _, p := range pts {
			sum += p.V
		}
		return sum / float64(len(pts)), true
	default:
		p, ok := e.db.Last(series)
		if !ok {
			return 0, false
		}
		return p.V, true
	}
}

func compare(v float64, op string, threshold float64) bool {
	if op == "<=" {
		return v <= threshold
	}
	return v >= threshold
}

// record appends an edge to the bounded history. Caller holds e.mu.
func (e *Engine) record(a Alert) Alert {
	a.Seq = e.nextSeq
	e.nextSeq++
	e.history = append(e.history, a)
	if len(e.history) > e.histCap {
		e.history = e.history[len(e.history)-e.histCap:]
	}
	return a
}

// History returns the retained alert edges, oldest first.
func (e *Engine) History() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Alert(nil), e.history...)
}

// Firing returns the (rule, series) pairs currently in violation,
// sorted for determinism.
func (e *Engine) Firing() []string {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.active))
	for k := range e.active {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EngineState is the serializable state of an Engine: active keys
// sorted, history oldest-first, so the encoding is deterministic. Rules
// are not part of the state — they come from configuration, and a
// restore may legitimately apply a new rule set to old series.
type EngineState struct {
	NextSeq uint64   `json:"next_seq"`
	Active  []string `json:"active,omitempty"`
	History []Alert  `json:"history,omitempty"`
}

// SaveState captures the engine for a checkpoint. Nil receiver returns
// nil.
func (e *Engine) SaveState() *EngineState {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := &EngineState{NextSeq: e.nextSeq, History: append([]Alert(nil), e.history...)}
	for k := range e.active {
		st.Active = append(st.Active, k)
	}
	sort.Strings(st.Active)
	return st
}

// RestoreState rebuilds dedup state and history from a checkpoint. A
// nil state resets the engine.
func (e *Engine) RestoreState(st *EngineState) error {
	if e == nil {
		if st == nil {
			return nil
		}
		return fmt.Errorf("obs: engine state restore into a nil engine")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if st == nil {
		e.active = make(map[string]bool)
		e.nextSeq = 1
		e.history = nil
		return nil
	}
	if st.NextSeq == 0 {
		return fmt.Errorf("obs: engine state has zero next sequence")
	}
	active := make(map[string]bool, len(st.Active))
	for _, k := range st.Active {
		active[k] = true
	}
	e.active = active
	e.nextSeq = st.NextSeq
	e.history = append([]Alert(nil), st.History...)
	if len(e.history) > e.histCap {
		e.history = e.history[len(e.history)-e.histCap:]
	}
	return nil
}
