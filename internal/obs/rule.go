package obs

// Rule is an empty stand-in for the alerting rule that dagauditd no
// longer evaluates. auditd.Config.Rules names it and nothing reads it;
// both stay only so the frozen dagbench security workload, which still
// passes DefaultRules(), builds until its next revision drops that
// argument (ROADMAP item 5).
type Rule struct{}

// DefaultRules returns no rules; see Rule.
func DefaultRules() []Rule { return nil }
