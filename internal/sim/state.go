package sim

import (
	"fmt"

	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/cpu"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/obs"
	"dagguise/internal/rng"
	"dagguise/internal/sched"
	"dagguise/internal/shaper"
)

// PortState is one shaper port's state: its DAGguise or Camouflage
// shaper, the staged egress and the egress high-water mark.
type PortState struct {
	Domain   mem.Domain        `json:"domain"`
	Shaper   *shaper.State     `json:"shaper,omitempty"`
	Camo     *camouflage.State `json:"camo,omitempty"`
	Egress   []mem.Request     `json:"egress,omitempty"`
	EgressHW int               `json:"egress_hw"`
}

// ChannelState is one channel unit's mutable state: the DRAM device, the
// controller and its arbiter, the shaper ports in service order and the
// fault-deferred responses.
type ChannelState struct {
	Index    int                     `json:"index"`
	Device   dram.DeviceState        `json:"device"`
	Ctrl     memctrl.ControllerState `json:"ctrl"`
	Sched    *sched.State            `json:"sched,omitempty"`
	Ports    []PortState             `json:"ports,omitempty"`
	Deferred []DeferredResponse      `json:"deferred,omitempty"`
}

// GeneratorState is one open-loop tenant's mutable state. Rand is filled
// in on save; the live draw position is the tenant's rng.
type GeneratorState struct {
	Index       int          `json:"index"`
	Rand        rng.State    `json:"rand"`
	NextAt      uint64       `json:"next_at"`
	Generated   uint64       `json:"generated"`
	Outstanding int          `json:"outstanding"`
	Pending     *mem.Request `json:"pending,omitempty"`
	Issued      uint64       `json:"issued"`
	Completed   uint64       `json:"completed"`
	Remote      uint64       `json:"remote"`
	Stalls      uint64       `json:"stalls"`
}

// DomainTapState is one audit tap's recorded samples and the cycle of its
// domain's previous completion.
type DomainTapState struct {
	Domain  mem.Domain     `json:"domain"`
	Samples []audit.Sample `json:"samples"`
	Last    uint64         `json:"last"`
}

// SystemState is the complete mutable state of a System, sufficient to
// resume a run bit-identically on a machine rebuilt by the same
// constructor from the same arguments. The scheme, seed, secret, tenant
// and channel lists are validated against the machine on restore;
// everything structural (mappers, policies, wiring) is configuration and
// is rebuilt by the constructor. Every map is serialized as an ordered list, so the
// JSON form is byte-deterministic. Deliberately excluded: the egress trace
// (an observation log, not machine state — a resumed run's trace continues
// from empty and concatenates with the pre-save trace), the watchdog
// configuration (runtime policy, set by the caller) and the fault injector
// (pure function of its schedule; reattach before restoring).
type SystemState struct {
	Scheme config.Scheme `json:"scheme"`
	Seed   int64         `json:"seed"`
	Secret int           `json:"secret"`

	Now    uint64 `json:"now"`
	NextID uint64 `json:"next_id"`

	CoreStates []cpu.CoreState  `json:"core_states,omitempty"`
	Generators []GeneratorState `json:"generators,omitempty"`
	Chans      []ChannelState   `json:"chans"`

	LastProgress uint64 `json:"last_progress"`
	LastRetired  uint64 `json:"last_retired"`
	// FaultDeferred counts responses withheld by injected faults (absent
	// on clean runs).
	FaultDeferred uint64 `json:"fault_deferred,omitempty"`

	AuditTaps []DomainTapState `json:"audit_taps,omitempty"`

	// Obs is the observability registry snapshot when one is attached,
	// so metrics after a resume match an uninterrupted run.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// SaveState captures the system's complete mutable state. Every core's
// trace source must be checkpointable (trace.Stateful); every shaper's
// driver must be checkpointable (both rdag drivers are).
func (s *System) SaveState() (*SystemState, error) {
	st := &SystemState{
		Scheme:        s.scheme,
		Seed:          s.seed,
		Secret:        s.secret,
		Now:           s.now,
		NextID:        s.nextID,
		LastProgress:  s.lastProgress,
		LastRetired:   s.lastRetired,
		FaultDeferred: s.faultDeferred,
		Obs:           s.mx.Snapshot(),
	}
	for _, c := range s.cores {
		cs, err := c.SaveState()
		if err != nil {
			return nil, err
		}
		st.CoreStates = append(st.CoreStates, cs)
	}
	for _, g := range s.gens {
		gs := g.GeneratorState
		gs.Rand = g.rng.State()
		st.Generators = append(st.Generators, gs)
	}
	for _, ch := range s.chans {
		cs, err := ch.saveState()
		if err != nil {
			return nil, err
		}
		st.Chans = append(st.Chans, cs)
	}
	for d, slot := range s.taps {
		if slot.tap != nil {
			st.AuditTaps = append(st.AuditTaps, DomainTapState{Domain: mem.Domain(d), Samples: slot.tap.SaveState(), Last: slot.last})
		}
	}
	return st, nil
}

func (ch *channel) saveState() (ChannelState, error) {
	cs := ChannelState{
		Index:    ch.index,
		Device:   ch.dev.SaveState(),
		Ctrl:     ch.ctrl.SaveState(),
		Deferred: append([]DeferredResponse(nil), ch.deferred...),
	}
	if ss, ok := ch.ctrl.Scheduler().(sched.StatefulScheduler); ok {
		sst := ss.SaveState()
		cs.Sched = &sst
	}
	for _, p := range ch.shaped {
		ps := PortState{Domain: p.dom, Egress: append([]mem.Request(nil), p.egress...), EgressHW: p.hw}
		if p.dag != nil {
			shs, err := p.dag.SaveState()
			if err != nil {
				return ChannelState{}, err
			}
			ps.Shaper = &shs
		} else {
			camo := p.camo.SaveState()
			ps.Camo = &camo
		}
		cs.Ports = append(cs.Ports, ps)
	}
	return cs, nil
}

// RestoreState overwrites the system's mutable state with a previously
// saved one. The system must have been built by the same constructor from
// the same arguments (for New, equivalent core specs); attach any fault
// schedule before restoring (the devices' saved stall-window sets replace
// whatever AttachFaults registered). Audit taps present in the state are
// restored only into taps already attached.
func (s *System) RestoreState(st *SystemState) error {
	if st == nil {
		return fmt.Errorf("sim: nil state")
	}
	if st.Scheme != s.scheme {
		return fmt.Errorf("sim: state was saved under scheme %v, system runs %v", st.Scheme, s.scheme)
	}
	if len(st.CoreStates) != len(s.cores) || len(st.Generators) != len(s.gens) || len(st.Chans) != len(s.chans) {
		return fmt.Errorf("sim: state holds %d cores, %d generators and %d channels, system has %d, %d and %d",
			len(st.CoreStates), len(st.Generators), len(st.Chans), len(s.cores), len(s.gens), len(s.chans))
	}
	if st.Seed != s.seed || st.Secret != s.secret {
		return fmt.Errorf("sim: state (seed %d, secret %d) does not match system (seed %d, secret %d)",
			st.Seed, st.Secret, s.seed, s.secret)
	}
	for i, c := range s.cores {
		if err := c.RestoreState(st.CoreStates[i]); err != nil {
			return err
		}
	}
	for i, gs := range st.Generators {
		g := s.gens[i]
		if gs.Index != g.Index {
			return fmt.Errorf("sim: generator state %d labelled %d", i, gs.Index)
		}
		g.GeneratorState = gs
		g.rng.Restore(gs.Rand)
	}
	for i, cs := range st.Chans {
		if err := s.chans[i].restoreState(cs); err != nil {
			return err
		}
	}
	for _, ts := range st.AuditTaps {
		if int(ts.Domain) < len(s.taps) && s.taps[ts.Domain].tap != nil {
			s.taps[ts.Domain].tap.RestoreState(ts.Samples)
			s.taps[ts.Domain].last = ts.Last
		}
	}
	if s.mx != nil && st.Obs != nil {
		if err := s.mx.Restore(st.Obs); err != nil {
			return err
		}
	}
	s.now = st.Now
	s.nextID = st.NextID
	s.lastProgress = st.LastProgress
	s.lastRetired = st.LastRetired
	s.faultDeferred = st.FaultDeferred
	s.portErr = nil
	return nil
}

func (ch *channel) restoreState(cs ChannelState) error {
	if cs.Index != ch.index {
		return fmt.Errorf("sim: channel state labelled %d, system channel is %d", cs.Index, ch.index)
	}
	if len(cs.Ports) != len(ch.shaped) {
		return fmt.Errorf("sim: channel %d state holds %d shaper ports, channel has %d", ch.index, len(cs.Ports), len(ch.shaped))
	}
	if err := ch.dev.RestoreState(cs.Device); err != nil {
		return err
	}
	if err := ch.ctrl.RestoreState(cs.Ctrl); err != nil {
		return err
	}
	policy := ch.ctrl.Scheduler()
	if ss, ok := policy.(sched.StatefulScheduler); ok {
		if cs.Sched == nil {
			return fmt.Errorf("sim: state missing %s arbiter state", policy.Name())
		}
		if err := ss.RestoreState(*cs.Sched); err != nil {
			return err
		}
	} else if cs.Sched != nil {
		return fmt.Errorf("sim: state carries %q arbiter state, system policy %s is stateless", cs.Sched.Kind, policy.Name())
	}
	for i, ps := range cs.Ports {
		p := ch.shaped[i]
		if ps.Domain != p.dom || (ps.Shaper != nil) != (p.dag != nil) || (ps.Camo != nil) != (p.camo != nil) {
			return fmt.Errorf("sim: channel %d port state %d does not match the shaper of domain %d", ch.index, i, p.dom)
		}
		var err error
		if p.dag != nil {
			err = p.dag.RestoreState(*ps.Shaper)
		} else {
			err = p.camo.RestoreState(*ps.Camo)
		}
		if err != nil {
			return err
		}
		p.egress = append(p.egress[:0], ps.Egress...)
		p.hw = ps.EgressHW
	}
	ch.deferred = append(ch.deferred[:0], cs.Deferred...)
	return nil
}
