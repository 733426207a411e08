package fleet

import (
	"fmt"
	"sync"

	"dagguise/internal/audit"
	"dagguise/internal/config"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
	"dagguise/internal/sim"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
	"dagguise/internal/workload"
)

// TwoCore describes dagchaos's fault-campaign machine: a protected DocDist
// victim next to one unprotected co-runner on the Table 2 channel. A sweep
// carrying it runs one shard per (scheme, seed), named like
// "dagguise-seed1", over any evaluation scheme. Only DAGguise shards run
// the secret-B twin, so only they carry a non-interference verdict; the
// other schemes are checked for forward progress under faults alone.
type TwoCore struct {
	// App is the co-runner's workload profile (workload.ByName).
	App string `json:"app"`

	// traces records each secret's victim trace once for the sweep; the
	// pool's workers build machines concurrently, hence the lock.
	mu     sync.Mutex
	traces map[int64]*trace.Slice
}

// twoCoreMaxStorm and twoCoreMaxWindow keep every injected fault well
// under the default watchdog's 50,001-cycle stall budget: a healthy
// machine must never be flagged, so every deadlock report is a finding.
// fault.Campaign draws DRAM storms up to MaxStorm, but its other windows
// grow with the horizon (up to Horizon/8); twoCoreMaxWindow, the longest
// window a 120k-cycle campaign draws, caps them, which leaves every
// schedule at horizons up to 120k cycles as drawn.
const (
	twoCoreMaxStorm  = 4_000
	twoCoreMaxWindow = 15_001
)

// TwoCoreSweep returns a two-core fault campaign over the given schemes
// and seeds: events fault events per shard (0 = clean runs), each run
// cycles long, the victim encoding secret 11 and, in the DAGguise twin,
// secret 12.
func TwoCoreSweep(schemes []string, seeds []int64, cycles uint64, events int, app string) Sweep {
	return Sweep{
		Schemes:     schemes,
		Seeds:       seeds,
		Cycles:      cycles,
		SecretA:     11,
		SecretB:     12,
		FaultEvents: events,
		TwoCore:     &TwoCore{App: app},
	}
}

// NewTwoCore builds the two-core machine for one run, the victim's trace
// encoding secret. The default watchdog is armed at construction, so its
// progress marks travel in the checkpointed state and a resumed run trips
// at the same cycle as an uninterrupted one. An audit tap records the
// victim domain's response timing, the stream AuditDigest hashes.
func NewTwoCore(scheme config.Scheme, app string, secret int64) (*sim.System, error) {
	tr, err := victim.DocDistTrace(secret, victim.DefaultDocDist())
	if err != nil {
		return nil, err
	}
	return newTwoCore(scheme, app, tr)
}

// newTwoCore is NewTwoCore over a recorded victim trace, which the machine
// takes as its own.
func newTwoCore(scheme config.Scheme, app string, tr *trace.Slice) (*sim.System, error) {
	prog, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(config.Default(2, scheme), []sim.CoreSpec{
		{Name: "docdist", Source: &trace.Loop{Inner: tr}, Protected: true},
		{Name: app, Source: workload.MustSource(prog, 5)},
	})
	if err != nil {
		return nil, err
	}
	sys.SetWatchdog(sim.DefaultWatchdog())
	sys.AuditResponses(1, audit.NewTap())
	return sys, nil
}

func (m *TwoCore) validate() error {
	if _, err := workload.ByName(m.App); err != nil {
		return fmt.Errorf("fleet: two-core co-runner: %w", err)
	}
	return nil
}

// faultSchedule draws the shard's campaign from its seed, so
// `dagchaos -seed n -campaigns 1` replays seed n of any sweep with the
// same cycle and event counts, then clamps every window to
// twoCoreMaxWindow. Only the victim's domain is eligible for
// domain-scoped faults.
func (m *TwoCore) faultSchedule(sh Shard, events int) fault.Schedule {
	sched := fault.Campaign(sh.Seed, fault.CampaignConfig{
		Horizon:  sh.Cycles,
		Domains:  []mem.Domain{1},
		MaxStorm: twoCoreMaxStorm,
		Events:   events,
	})
	for i := range sched.Events {
		sched.Events[i].Duration = min(sched.Events[i].Duration, twoCoreMaxWindow)
	}
	return sched
}

// machine returns the shard's twin constructor; only DAGguise runs twins.
func (m *TwoCore) machine(sh Shard) (func(secret int) (*sim.System, error), bool, error) {
	scheme, err := config.ParseScheme(sh.Scheme)
	if err != nil {
		return nil, false, err
	}
	return func(secret int) (*sim.System, error) {
		tr, err := m.trace(int64(secret))
		if err != nil {
			return nil, err
		}
		return newTwoCore(scheme, m.App, tr)
	}, scheme == config.DAGguise, nil
}

// trace returns a fresh position over the secret's victim trace, recording
// it on first use. Every machine shares the recorded ops, which nothing
// writes, and reads them through its own Slice.
func (m *TwoCore) trace(secret int64) (*trace.Slice, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tr, ok := m.traces[secret]
	if !ok {
		var err error
		if tr, err = victim.DocDistTrace(secret, victim.DefaultDocDist()); err != nil {
			return nil, err
		}
		if m.traces == nil {
			m.traces = map[int64]*trace.Slice{}
		}
		m.traces[secret] = tr
	}
	return &trace.Slice{Ops: tr.Ops}, nil
}
