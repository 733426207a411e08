package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestEngineThresholdEdgeTriggered(t *testing.T) {
	db := NewTSDB(16)
	e := NewEngine(db, []Rule{{Name: "deep", Series: "queue", Threshold: 10}})

	db.Append("queue", 1, 5)
	if got := e.Eval(1); got != nil {
		t.Fatalf("alert below threshold: %+v", got)
	}
	db.Append("queue", 2, 12)
	edges := e.Eval(2)
	if len(edges) != 1 || edges[0].State != "firing" || edges[0].Value != 12 || edges[0].Seq != 1 {
		t.Fatalf("firing edge = %+v", edges)
	}
	// Still violated: deduplicated, no new edge.
	db.Append("queue", 3, 30)
	if got := e.Eval(3); got != nil {
		t.Fatalf("duplicate alert while active: %+v", got)
	}
	if got := e.Firing(); !reflect.DeepEqual(got, []string{"deep|queue"}) {
		t.Fatalf("firing = %v", got)
	}
	// Recovery emits a resolved edge; re-violation fires again.
	db.Append("queue", 4, 2)
	edges = e.Eval(4)
	if len(edges) != 1 || edges[0].State != "resolved" || edges[0].Seq != 2 {
		t.Fatalf("resolved edge = %+v", edges)
	}
	db.Append("queue", 5, 50)
	edges = e.Eval(5)
	if len(edges) != 1 || edges[0].State != "firing" || edges[0].Seq != 3 {
		t.Fatalf("refire edge = %+v", edges)
	}
	if got := len(e.History()); got != 3 {
		t.Fatalf("history length = %d, want 3", got)
	}
}

// TestEngineBurnRateWildcard is the leakage-budget shape: a 0/1
// budget-exceeded indicator per tenant, one wildcard rule, the insecure
// tenant burning and firing while dagguise stays silent.
func TestEngineBurnRateWildcard(t *testing.T) {
	db := NewTSDB(16)
	e := NewEngine(db, []Rule{{
		Name: "leak-burn", Series: "leak_burn/*", Kind: RuleBurnRate,
		Threshold: 0.5, Window: 4, MinPoints: 3,
	}})

	for i := uint64(1); i <= 4; i++ {
		db.Append("leak_burn/insecure", i, 1)
		db.Append("leak_burn/dagguise", i, 0)
		if i < 3 {
			// Below MinPoints: silent even though every window burned.
			if got := e.Eval(i); got != nil {
				t.Fatalf("alert before min_points: %+v", got)
			}
		}
	}
	edges := e.Eval(5)
	if len(edges) != 1 {
		t.Fatalf("want exactly one firing tenant, got %+v", edges)
	}
	a := edges[0]
	if a.Series != "leak_burn/insecure" || a.State != "firing" || a.Value != 1 {
		t.Fatalf("edge = %+v", a)
	}
	if got := e.Firing(); !reflect.DeepEqual(got, []string{"leak-burn|leak_burn/insecure"}) {
		t.Fatalf("firing = %v", got)
	}
}

func TestEngineLessEqualOp(t *testing.T) {
	db := NewTSDB(4)
	e := NewEngine(db, []Rule{{Name: "starved", Series: "rate", Op: "<=", Threshold: 1}})
	db.Append("rate", 1, 0.2)
	if edges := e.Eval(1); len(edges) != 1 || edges[0].State != "firing" {
		t.Fatalf("<= rule did not fire: %+v", edges)
	}
}

func TestEngineNilIsNoOp(t *testing.T) {
	var e *Engine
	if e.Eval(1) != nil || e.History() != nil || e.Firing() != nil || e.Rules() != nil || e.SaveState() != nil {
		t.Fatal("nil engine returned data")
	}
	if err := e.RestoreState(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreState(&EngineState{NextSeq: 1}); err == nil {
		t.Fatal("restore into nil engine accepted")
	}
}

func TestEngineStateRoundTrip(t *testing.T) {
	db := NewTSDB(8)
	rules := []Rule{{Name: "deep", Series: "queue", Threshold: 10}}
	e := NewEngine(db, rules)
	db.Append("queue", 1, 99)
	e.Eval(1)

	st := e.SaveState()
	e2 := NewEngine(db, rules)
	if err := e2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	// The violation is still active after restore: no duplicate edge.
	db.Append("queue", 2, 99)
	if edges := e2.Eval(2); edges != nil {
		t.Fatalf("restored engine re-fired an active alert: %+v", edges)
	}
	// Recovery resumes the sequence numbering.
	db.Append("queue", 3, 0)
	edges := e2.Eval(3)
	if len(edges) != 1 || edges[0].State != "resolved" || edges[0].Seq != 2 {
		t.Fatalf("post-restore edge = %+v", edges)
	}
	if err := e2.RestoreState(&EngineState{NextSeq: 0}); err == nil {
		t.Fatal("zero next_seq accepted")
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules([]byte(`[
		{"name": "leak-burn", "series": "leak_burn/*", "kind": "burn_rate", "threshold": 0.5, "window": 3},
		{"name": "deep", "series": "queue", "threshold": 10}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Kind != RuleBurnRate || rules[1].Kind != RuleThreshold {
		t.Fatalf("parsed = %+v", rules)
	}
	if rules[1].Op != ">=" || rules[1].Window != 5 || rules[1].MinPoints != 1 {
		t.Fatalf("defaults not applied: %+v", rules[1])
	}
	for _, bad := range []string{
		`[{"series": "x", "threshold": 1}]`,             // no name
		`[{"name": "x", "threshold": 1}]`,               // no series
		`[{"name": "x", "series": "s", "kind": "avg"}]`, // bad kind
		`[{"name": "x", "series": "s", "op": "=="}]`,    // bad op
		`[{"name": "x", "series": "s", "bogus": true}]`, // unknown field
		`{"name": "x"}`, // not a list
	} {
		if _, err := ParseRules([]byte(bad)); err == nil {
			t.Errorf("ParseRules accepted %s", bad)
		}
	}
}

func TestRuleSeverity(t *testing.T) {
	// Default and validation.
	r := Rule{Name: "r", Series: "s", Threshold: 1}
	if err := r.Validate(); err != nil || r.Severity != SeverityWarning {
		t.Fatalf("default severity: %q err=%v", r.Severity, err)
	}
	bad := Rule{Name: "r", Series: "s", Threshold: 1, Severity: "shouting"}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown severity accepted")
	}

	// Alerts carry the rule's severity on both edge kinds.
	db := NewTSDB(4)
	eng := NewEngine(db, []Rule{{Name: "crit", Series: "x", Threshold: 1, Severity: SeverityCritical}})
	db.Append("x", 1, 5)
	firing := eng.Eval(1)
	db.Append("x", 2, 0)
	resolved := eng.Eval(2)
	if len(firing) != 1 || firing[0].Severity != SeverityCritical {
		t.Fatalf("firing edge severity: %+v", firing)
	}
	if len(resolved) != 1 || resolved[0].Severity != SeverityCritical {
		t.Fatalf("resolved edge severity: %+v", resolved)
	}
}

// TestDefaultRulesCatalog pins the stock catalog's shape: every rule
// validates, names are unique, and no two series patterns can match the
// same series name, so each of dagauditd's series families (leak_burn,
// queue_sat, retry_rate) fires only its own rule.
func TestDefaultRulesCatalog(t *testing.T) {
	rules := DefaultRules()
	names := make(map[string]bool)
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			t.Fatalf("rule %q: %v", r.Name, err)
		}
		if names[r.Name] {
			t.Fatalf("duplicate rule name %q", r.Name)
		}
		names[r.Name] = true
	}
	overlap := func(p, q string) bool {
		pp, pw := strings.CutSuffix(p, "*")
		qp, qw := strings.CutSuffix(q, "*")
		switch {
		case pw && qw:
			return strings.HasPrefix(pp, qp) || strings.HasPrefix(qp, pp)
		case pw:
			return strings.HasPrefix(q, pp)
		case qw:
			return strings.HasPrefix(p, qp)
		default:
			return p == q
		}
	}
	for i := range rules {
		for j := i + 1; j < len(rules); j++ {
			if overlap(rules[i].Series, rules[j].Series) {
				t.Errorf("rules %q (%s) and %q (%s) can match the same series",
					rules[i].Name, rules[i].Series, rules[j].Name, rules[j].Series)
			}
		}
	}
	// The overlap predicate itself must catch each shape of collision.
	for _, pair := range [][2]string{
		{"leak/*", "leak/x/*"}, {"leak/*", "leak/x"}, {"a", "a"}, {"a/*", "a/*"},
	} {
		if !overlap(pair[0], pair[1]) || !overlap(pair[1], pair[0]) {
			t.Errorf("overlap(%q, %q) missed a collision", pair[0], pair[1])
		}
	}
}
