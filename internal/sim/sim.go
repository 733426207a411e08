// Package sim wires the full simulated machine together: trace-driven
// cores with private cache hierarchies, optional DAGguise or Camouflage
// shapers per protected domain, a shared memory controller with the
// configured scheduling policy (insecure FR-FCFS, FS, FS-BTA, TP), and the
// DRAM device model. It drives everything cycle by cycle and reports
// per-core IPC and bandwidth, the measurements behind Figures 7, 9 and 10.
//
// The same engine also simulates the fleet's multi-channel machine
// (NewCluster) and the attack rig (New with a Tenant per domain): only the
// tenants and the channel count differ, everything from a tenant's
// hand-over onward is shared.
package sim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"dagguise/internal/audit"
	"dagguise/internal/cache"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/cpu"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/obs"
	"dagguise/internal/rdag"
	"dagguise/internal/sched"
	"dagguise/internal/shaper"
	"dagguise/internal/trace"
)

// CPUFrequencyHz is the simulated core clock (Table 2).
const CPUFrequencyHz = 2.4e9

// privateQueueDepth is the per-domain private transaction queue depth of
// the shaper hardware (8 entries in the paper's area evaluation).
const privateQueueDepth = 8

// CoreSpec describes one core's software and protection needs.
type CoreSpec struct {
	// Name labels the core in results.
	Name string
	// Source supplies the core's trace (usually an infinite/looped one).
	Source trace.Source
	// Protected marks the core's domain as security sensitive. Under
	// DAGguise it gets a request shaper, under Camouflage a distribution
	// shaper, and under FS/FS-BTA/TP its own slot group.
	Protected bool
	// Defense is the defense rDAG template for DAGguise (ignored
	// otherwise). Zero value selects a reasonable default.
	Defense rdag.Template
	// Distribution is the target interval distribution for Camouflage.
	Distribution camouflage.Distribution
	// Tenant, when set, drives the domain in place of a trace-driven core
	// (Source is then unused). A system takes all tenants or all cores.
	Tenant Tenant
	// ShaperSeed seeds a tenant domain's shaper. A core's shaper is seeded
	// from its domain, the seed every pinned core result was recorded with.
	ShaperSeed int64
}

// Tenant is a closed-loop request source that a System ticks in place of
// a trace-driven core: the attack rig's victim and attacker. The System
// ticks a tenant only from the cycle it asked for, so a tenant waiting on
// its response costs the tick loop one compare.
type Tenant interface {
	// Tick lets the tenant offer requests to its domain's port at cycle
	// now, drawing request IDs from alloc, and returns the next cycle it
	// needs a tick (math.MaxUint64 while it only awaits a response).
	Tick(now uint64, port cpu.Port, alloc cpu.IDAlloc) (next uint64)
	// OnResponse delivers one of the tenant's responses at cycle now and
	// returns the next cycle the tenant needs a tick. stop asks the Run
	// in progress to return after this cycle's tick, as the attack rig
	// does on its last probe.
	OnResponse(resp mem.Response, now uint64) (next uint64, stop bool)
}

// tenantSlot is one tenant with its port, the machine's ID allocator and
// the next cycle the tenant asked to be ticked at.
type tenantSlot struct {
	Tenant
	port  *port
	alloc cpu.IDAlloc
	next  uint64
}

// System is a fully wired simulated machine: tenants issuing into one or
// more channel units through per-domain ports. A tenant is one security
// domain's traffic source, tenant i being domain i+1: closed-loop cores
// or Tenants for New, open-loop generators for NewCluster. The tick loop
// walks the concrete slice of cores; Tenants and generators it wakes by
// cycle, so hundreds of idle generators cost it nothing.
type System struct {
	scheme  config.Scheme
	cores   []*cpu.Core  // the cores of a New-built system
	specs   []CoreSpec   // the specs of a New-built system
	tenants []tenantSlot // the Tenants of a New-built system
	gens    []*generator // the tenants of a NewCluster-built system
	chans   []*channel

	// tenantWake is the earliest cycle a Tenant asked to be ticked at,
	// so the tick loop tests one cycle, not every Tenant. genWake, genQ
	// and refused do the same for the generators (see tickGens); like the
	// cores' park state they are derived and never serialized.
	tenantWake uint64
	genWake    uint64
	genQ       genQueue
	refused    []*generator
	genBatch   []*generator // tickGens' scratch

	// NewCluster's channel slice start, router width, seed and secret
	// (zero for New, whose single channel is index 0).
	chanLo     int
	routeWidth int
	seed       int64
	secret     int

	// Fault injection and forward-progress watchdog (nil/zero = off).
	faults        *fault.Injector
	faultDeferred uint64 // responses withheld by delay/drop faults so far
	wd            Watchdog
	portErr       error // routing violation raised inside a port this tick

	lastProgress uint64 // last cycle with retirement or delivery
	lastRetired  uint64 // total retired instructions at lastProgress

	// stopAsked is set when a Tenant's OnResponse asks to end the run;
	// Run clears it on entry and returns after the tick that set it.
	stopAsked bool

	traceOn bool
	traces  map[mem.Domain][]EgressEvent

	// Observability (nil = off); measurement only, never consulted by the
	// simulated machine (see TestObservabilityNonInterference).
	mx   *obs.Registry
	tr   *obs.Tracer
	prof *obs.CycleProfile

	// Leakage-audit taps indexed by domain (nil tap = off); like mx/tr
	// they are write-only from the machine's perspective (see
	// TestAuditTapNonInterference).
	taps []tapSlot

	now    uint64
	nextID uint64
}

// tapSlot is one domain's audit tap and the cycle of the domain's
// previous completion.
type tapSlot struct {
	tap  *audit.Tap
	last uint64
}

// EgressEvent is one externally observable shaper emission: the cycle it
// entered the egress path, the flat bank it targets and its read/write
// kind. Addresses and IDs are deliberately excluded — they may differ
// between runs with different victim secrets, while the
// (cycle, bank, kind) stream is exactly what the paper proves
// secret-independent.
type EgressEvent struct {
	Cycle uint64
	Bank  int
	Kind  mem.Kind
}

// domainOf maps core index to its security domain (domains start at 1;
// domain 0 is reserved for unattributed traffic).
func domainOf(core int) mem.Domain { return mem.Domain(core + 1) }

// New builds a system from the configuration and core specs.
func New(cfg config.SystemConfig, specs []CoreSpec) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d core specs for %d cores", len(specs), cfg.Cores)
	}
	protected := make([]bool, len(specs))
	for i, spec := range specs {
		if (spec.Tenant == nil) != (specs[0].Tenant == nil) {
			return nil, fmt.Errorf("sim: a system takes all tenants or all cores")
		}
		protected[i] = spec.Protected
	}
	// The row-buffer-aware extension (§4.4): when every protected
	// domain's defense rDAG encodes its own row-hit pattern, the
	// closed-row policy is unnecessary — the rDAG prescribes the
	// row-buffer behaviour instead.
	if cfg.Scheme == config.DAGguise {
		rowAware := false
		for _, spec := range specs {
			if spec.Protected && spec.Defense.RowHitRatio > 0 {
				rowAware = true
			} else if spec.Protected {
				rowAware = false
				break
			}
		}
		if rowAware {
			cfg.ClosedRow = false
		}
	}
	s := &System{scheme: cfg.Scheme, specs: specs}
	policy, err := buildPolicy(cfg.Scheme, cfg.Timing, cfg.FSBTAStrideDRAM, protected)
	if err != nil {
		return nil, err
	}
	// Every scheme partitions the transaction queue per domain: real
	// controllers give each source its own read queue/credits, and a
	// shared queue lets one streaming core monopolise entries and starve
	// the rest (for the secure schemes partitioning is mandatory — see
	// Controller.PartitionQueue).
	ch, err := s.addChannel(0, cfg.Geometry, cfg.Timing, cfg.ClosedRow, policy,
		privateQueueDepth*cfg.Cores, privateQueueDepth, cfg.Cores)
	if err != nil {
		return nil, err
	}
	alloc := cpu.IDAlloc(s.alloc)
	for i, spec := range specs {
		p := ch.ports[i]
		if spec.Protected {
			dagSeed, camoSeed := int64(p.dom)*7919, int64(p.dom)*104729
			if spec.Tenant != nil {
				dagSeed, camoSeed = spec.ShaperSeed, spec.ShaperSeed
			}
			if err := s.shapePort(ch, p, spec.Defense, spec.Distribution, privateQueueDepth, dagSeed, camoSeed); err != nil {
				return nil, err
			}
		}
		if spec.Tenant != nil {
			s.tenants = append(s.tenants, tenantSlot{Tenant: spec.Tenant, port: p, alloc: alloc})
			continue
		}
		hier, err := cache.NewHierarchy(cfg)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, cpu.New(p.dom, spec.Source, hier, cfg.Core, p, alloc))
	}
	s.taps = make([]tapSlot, len(specs)+1)
	return s, nil
}

func (s *System) alloc() uint64 {
	s.nextID++
	return s.nextID
}

// buildPolicy selects either machine's scheduling policy for the scheme.
// protected[i] marks domain i+1 as protected; fsbtaStride > 0 overrides
// the FS-BTA slot stride.
func buildPolicy(scheme config.Scheme, timing config.DRAMTiming, fsbtaStride int, protected []bool) (memctrl.Scheduler, error) {
	switch scheme {
	case config.Insecure, config.Camouflage, config.DAGguise:
		// DAGguise keeps the high-performance scheduler: dynamic
		// contention is safe because the shaped stream is already
		// secret-independent.
		return memctrl.FRFCFS{}, nil
	case config.FixedService:
		return sched.NewFixedService(timing, buildGroups(protected)), nil
	case config.FSBTA:
		if fsbtaStride > 0 {
			return sched.NewFSBTAWithStride(timing, buildGroups(protected), fsbtaStride), nil
		}
		return sched.NewFSBTA(timing, buildGroups(protected)), nil
	case config.TemporalPartitioning:
		return sched.NewTemporalPartitioning(timing, buildGroups(protected), 96), nil
	default:
		return nil, fmt.Errorf("sim: unsupported scheme %v", scheme)
	}
}

// buildGroups constructs the slot rotation for FS-family arbiters: each
// protected domain alone in its group, all unprotected domains sharing one
// group that appears once per unprotected domain. On the paper's 8-core
// setup this yields the 4 x 1/8 victim slots + 4/8 shared SPEC slots.
func buildGroups(protected []bool) []sched.Group {
	var unprotected sched.Group
	for i, prot := range protected {
		if !prot {
			unprotected = append(unprotected, domainOf(i))
		}
	}
	var groups []sched.Group
	for i, prot := range protected {
		if prot {
			groups = append(groups, sched.Group{domainOf(i)})
		} else {
			groups = append(groups, unprotected)
		}
	}
	return groups
}

// shapePort puts a protected domain's shaper in front of its port: a
// DAGguise shaper over tpl or a Camouflage shaper over dist (a zero value
// selects the evaluation default), with a private queue depth entries deep.
// FS-family schemes protect at the scheduler and insecure runs unshaped by
// definition, so both leave the port direct.
func (s *System) shapePort(ch *channel, p *port, tpl rdag.Template, dist camouflage.Distribution, depth int, dagSeed, camoSeed int64) error {
	switch s.scheme {
	case config.DAGguise:
		if tpl.Sequences == 0 {
			tpl = rdag.Template{Sequences: 4, Weight: 300, WriteRatio: 0.001, Banks: ch.mapper.BankCount()}
		}
		driver, err := rdag.NewPatternDriver(tpl)
		if err != nil {
			return err
		}
		ch.shape(p, shaper.New(p.dom, driver, ch.mapper, depth, s.alloc, dagSeed), nil)
	case config.Camouflage:
		if len(dist.Intervals) == 0 {
			dist = camouflage.Distribution{Intervals: []uint64{200, 300, 400, 600}}
		}
		sh, err := camouflage.New(p.dom, dist, ch.mapper, depth, s.alloc, camoSeed)
		if err != nil {
			return err
		}
		ch.shape(p, nil, sh)
	}
	return nil
}

// Tick advances the whole machine one cycle and reports an invariant
// violation as a *SimError. The tenants tick in domain order; then each
// channel in index order steps its shaper ports in service order (see
// tickPort), lets its controller issue and complete, passes the responses
// through the fault layer (see deferResponses) and routes each one back
// through its domain's port. The forward-progress checks run only when a
// watchdog is armed with SetWatchdog; routing checks always run.
func (s *System) Tick() error {
	now := s.now
	// The profiler is a telescoping lap clock: each Lap charges the time
	// since the previous lap (anywhere) to its bucket. Lapping PBHarness
	// first attributes everything since the last tick ended — the caller's
	// loop, checkProgress, bench harness glue — to the harness bucket, so
	// the per-component buckets stay pure and the report explains ~100%
	// of wall time.
	s.prof.Lap(obs.PBHarness)
	for _, c := range s.cores {
		c.Tick(now)
	}
	if now >= s.tenantWake {
		s.tickTenants(now)
	}
	if now >= s.genWake || len(s.refused) > 0 {
		s.tickGens(now)
	}
	s.prof.Lap(obs.PBCPU)
	if err := s.portErr; err != nil {
		// Cleared here, not on every tick, so a clean tick stores nothing.
		s.portErr = nil
		return s.errf(InvariantProtocol, 0, err, "request misrouted at tenant port")
	}
	delivered := false
	for _, ch := range s.chans {
		for _, p := range ch.shaped {
			if err := s.tickPort(ch, p, now); err != nil {
				return err
			}
		}
		// ctrl.Tick laps its own interior (sched picks -> PBSched, device
		// service -> PBDRAM, bookkeeping/drain -> PBMemctrl) on the shared
		// profiler, telescoping seamlessly with the laps here.
		resps := ch.ctrl.Tick(now)
		if s.faults != nil || len(ch.deferred) > 0 {
			resps = s.deferResponses(ch, resps, now)
		}
		for _, resp := range resps {
			if err := s.deliver(ch, resp, now); err != nil {
				return s.errf(InvariantProtocol, resp.Domain, err, "response routing failed")
			}
		}
		s.prof.Lap(obs.PBRoute)
		delivered = delivered || len(resps) > 0
	}
	s.now++
	if s.wd.StallBudget == 0 {
		return nil
	}
	return s.checkProgress(delivered)
}

// tickTenants ticks the Tenants whose cycle has come and notes the
// earliest cycle any of them asked for next.
func (s *System) tickTenants(now uint64) {
	wake := uint64(math.MaxUint64)
	for i := range s.tenants {
		t := &s.tenants[i]
		if now >= t.next {
			t.next = t.Tick(now, t.port, t.alloc)
		}
		wake = min(wake, t.next)
	}
	s.tenantWake = wake
}

// tickGens steps the due generators in index order: those holding a
// refused request, which retry on every cycle, and those the due-queue
// holds with NextAt reached. Request IDs come from one allocator, so the
// order is the index order a scan of every generator would take. A
// stepped generator that holds a refused request again joins the refused
// list; one still below the outstanding limit rejoins the queue, and one
// at the limit waits for deliver to queue it on a completion. genWake is
// the queue's earliest NextAt: the exact cycle the next of them is due,
// since only a completion can change it.
func (s *System) tickGens(now uint64) {
	batch := append(s.genBatch[:0], s.refused...)
	for len(s.genQ) > 0 && s.genQ[0].NextAt <= now {
		batch = append(batch, s.genQ.pop())
	}
	if len(batch) > 1 {
		slices.SortFunc(batch, func(a, b *generator) int { return a.Index - b.Index })
	}
	s.refused = s.refused[:0]
	for _, g := range batch {
		g.step(now)
		switch {
		case g.Pending != nil:
			s.refused = append(s.refused, g)
		case g.Outstanding < clusterMaxOutstanding:
			s.genQ.push(g)
		}
	}
	s.genBatch = batch
	s.genWake = s.genQ.wake()
}

// checkProgress enforces the deadlock invariant of an armed watchdog: with
// pending work, some instruction must retire or some response must be
// delivered within the stall budget.
func (s *System) checkProgress(delivered bool) error {
	retired := s.retired()
	if delivered || retired != s.lastRetired {
		s.lastProgress = s.now
		s.lastRetired = retired
		return nil
	}
	if s.now-s.lastProgress <= s.wd.StallBudget {
		return nil
	}
	if s.idle() {
		// Nothing pending anywhere (e.g. all finite traces retired):
		// quiescence, not deadlock.
		s.lastProgress = s.now
		return nil
	}
	detail := fmt.Sprintf("no instruction retired and no response delivered for %d cycles", s.now-s.lastProgress)
	earliest, found := uint64(0), false
	for _, ch := range s.chans {
		if at, ok := ch.ctrl.NextCompletion(); ok && (!found || at < earliest) {
			earliest, found = at, true
		}
	}
	if found {
		detail += fmt.Sprintf("; earliest in-flight completion at cycle %d", earliest)
	}
	return s.errf(InvariantDeadlock, 0, nil, "%s", detail)
}

// retired is the total instruction count the cores have retired.
func (s *System) retired() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.Stats().Instructions
	}
	return n
}

// idle reports whether the machine has genuinely nothing left to do.
func (s *System) idle() bool {
	for _, ch := range s.chans {
		if !ch.idle() {
			return false
		}
	}
	for _, c := range s.cores {
		if !c.Done() {
			return false
		}
	}
	// A Tenant or an open-loop generator never runs out of work.
	return len(s.tenants) == 0 && len(s.gens) == 0
}

// ctxCheckInterval is how many cycles Run advances between context polls.
// Polling every tick would put a synchronized atomic load on the
// simulator's hot path; 4096 cycles bounds cancellation latency to a few
// microseconds of wall time while keeping the poll cost unmeasurable.
const ctxCheckInterval = 4096

// Run advances the machine by the given number of cycles, stopping at the
// first invariant violation (a *SimError). The context is polled every
// ctxCheckInterval cycles and its error is returned as soon as it fires
// (use errors.Is with context.Canceled / context.DeadlineExceeded). Either
// way the machine stops at a cycle boundary in a consistent state, so a
// caller may checkpoint it with SaveState and resume later.
//
// A Tenant ends the run early: Run returns nil after the tick in which a
// Tenant's OnResponse asked to stop, as a Tick loop that checks the
// tenant's condition after every tick would.
//
// Run leaves the machine exactly as the same number of Ticks would, but
// it does not step through quiet cycles: from each cycle it asks every
// component for the earliest cycle it could act (quietUntil) and replays
// the cycles before that in bulk (skip). Only a tick delivers a response,
// so no skipped cycle can hold a Tenant's stop.
func (s *System) Run(ctx context.Context, cycles uint64) error {
	s.stopAsked = false
	for end := s.now + cycles; s.now < end; {
		if err := ctx.Err(); err != nil {
			return err
		}
		for poll := min(end, s.now+ctxCheckInterval); s.now < poll; {
			if next := s.quietUntil(poll); next > s.now {
				s.skip(next - s.now)
				continue
			}
			if err := s.Tick(); err != nil {
				return err
			}
			if s.stopAsked {
				return nil
			}
		}
	}
	return nil
}

// quietUntil returns the first cycle, capped at limit, at which some
// component could do more in a Tick than skip replays, or s.now when the
// current cycle is not quiet. Each component's answer is a lower bound on
// when it next acts, which only another component acting can lower (a
// response unparks a core, an issue frees port room). No component acts
// before the earliest answer, so every cycle before it is quiet. Cores
// are asked first because they are the component most often busy.
func (s *System) quietUntil(limit uint64) uint64 {
	now, next := s.now, limit
	for _, c := range s.cores {
		if next = min(next, c.WakeAt(now)); next <= now {
			return now
		}
	}
	if now >= s.genWake {
		return now // a generator is due
	}
	next = min(next, s.tenantWake, s.genWake)
	for _, g := range s.refused {
		// A refused request waits for room, which only the memory
		// side's events give back.
		if g.port(*g.Pending).Room(now) {
			return now
		}
	}
	if s.faults != nil {
		// A window edge changes port room (backpressure) or what a
		// response or staged request meets on its way.
		next = min(next, s.faults.NextEdge(now))
	}
	if s.wd.StallBudget > 0 {
		// The first cycle whose tick finds the stall budget exhausted.
		next = min(next, s.lastProgress+s.wd.StallBudget)
	}
	if next <= now {
		return now
	}
	for _, ch := range s.chans {
		for _, p := range ch.shaped {
			if len(p.egress) > 0 {
				return now
			}
			if p.dag != nil {
				next = min(next, p.dag.NextEmit())
			} else {
				next = min(next, p.camo.NextEmit(now))
			}
		}
		for _, d := range ch.deferred {
			next = min(next, d.Until)
		}
		if next <= now {
			return now
		}
		// Asked last: for a slotted arbiter it stands in for the pick at
		// now, which the Tick a non-quiet answer leads to repeats alike.
		if at, ok := ch.ctrl.NextEvent(now); ok && at < next {
			if at <= now {
				return now
			}
			next = at
		}
	}
	return next
}

// skip replays the k quiet cycles from s.now that quietUntil found. In
// each, Tick would only have advanced the parked cores' counters, retired
// the retiring cores' gap instructions and drawn their refused offers'
// request IDs, counted a stall for each generator still holding a refused
// request, and sampled the per-cycle histograms of every core, shaper,
// egress queue and controller. A retiring core retires on every skipped
// cycle, so an armed watchdog's check after the last one records progress.
func (s *System) skip(k uint64) {
	retired := false
	for _, c := range s.cores {
		ids, r := c.SkipParked(k)
		s.nextID += ids
		retired = retired || r
	}
	for _, g := range s.refused {
		g.Stalls += k
	}
	for _, ch := range s.chans {
		for _, p := range ch.shaped {
			if p.dag != nil {
				p.dag.SkipTicks(k)
			} else {
				p.camo.SkipTicks(k)
			}
			s.mx.ObserveN(obs.HistEgressQueue, int(p.dom), 0, k)
		}
		ch.ctrl.SkipTicks(k)
	}
	s.now += k
	if retired && s.wd.StallBudget > 0 {
		s.lastProgress, s.lastRetired = s.now, s.retired()
	}
}

// SetWatchdog arms the forward-progress invariants every later tick
// checks, and is the only way to arm them: a machine runs without a
// watchdog until one is set. Fields left zero disable the corresponding
// check; the zero Watchdog disarms both.
func (s *System) SetWatchdog(w Watchdog) {
	s.wd = w
	s.lastProgress = s.now
	s.lastRetired = s.retired()
}

// AttachFaults wires a deterministic fault schedule into the machine: DRAM
// stall windows are registered with every channel's device model, and the
// remaining fault kinds are consulted cycle by cycle during tick. Every
// query is keyed on (cycle, domain) only, so the same schedule attached to
// twin systems differing only in a secret produces bit-identical fault
// sequences. Attach faults once, before running or restoring (a restore
// replaces the device windows with the saved set).
func (s *System) AttachFaults(sched fault.Schedule) error {
	in, err := fault.NewInjector(sched)
	if err != nil {
		return err
	}
	s.faults = in
	for _, ch := range s.chans {
		for _, w := range in.StallWindows() {
			ch.dev.InjectStallWindow(w.Start, w.End())
		}
	}
	return nil
}

// EnableEgressTrace starts recording every shaper emission as an
// EgressEvent per protected domain. Enable it before running; tracing is
// the observation side of the non-interference-under-faults argument.
func (s *System) EnableEgressTrace() {
	s.traceOn = true
	if s.traces == nil {
		s.traces = make(map[mem.Domain][]EgressEvent)
	}
}

// EgressTrace returns the recorded shaped-egress timing trace of the
// domain (nil when tracing is off or the domain is unshaped).
func (s *System) EgressTrace(d mem.Domain) []EgressEvent { return s.traces[d] }

// NumDomains returns the number of observability domain slots this system
// needs: one per tenant plus the system-wide slot 0.
func (s *System) NumDomains() int { return len(s.cores) + len(s.tenants) + len(s.gens) + 1 }

// Observe attaches an observability registry and tracer (either may be
// nil) and threads them through every component: each channel's memory
// controller, DRAM device, shapers and (when the scheme has one) secure
// arbiter, and each core. Collection is measurement-only — no component's
// timing decision ever reads back from the registry or tracer — so the
// simulated machine behaves bit-identically with observability on or off.
func (s *System) Observe(mx *obs.Registry, tr *obs.Tracer) {
	s.mx = mx
	s.tr = tr
	for _, ch := range s.chans {
		ch.ctrl.Observe(mx, tr)
		for _, p := range ch.shaped {
			if p.dag != nil {
				p.dag.Observe(mx, tr)
			} else {
				p.camo.Observe(mx, tr)
			}
		}
		if so, ok := ch.ctrl.Scheduler().(interface{ Observe(*obs.Registry) }); ok {
			so.Observe(mx)
		}
	}
	for _, c := range s.cores {
		c.Observe(mx)
	}
}

// Profile attaches a cycle-attribution profiler (nil = off) to the tick
// loop and the memory controllers. Like Observe it is measurement only:
// laps read the wall clock and write profiler-private buckets, nothing
// in the simulated machine consults them, so shaped egress is
// bit-identical with profiling on or off (pinned by the full-on
// non-interference test).
func (s *System) Profile(p *obs.CycleProfile) {
	s.prof = p
	for _, ch := range s.chans {
		ch.ctrl.Profile(p)
	}
}

// AuditResponses attaches a leakage-audit tap to domain d, one of the
// system's domains: every controller response for the domain is recorded
// as (completion cycle, gap since the domain's previous completion) — the
// response-timing stream an attacker on the shared channel can observe.
// The tap sees the stream before shaper filtering, so fake responses are
// included; under DAGguise the recorded stream is secret-independent by
// construction. A nil tap detaches the domain. Measurement only:
// TestAuditTapNonInterference pins the shaped egress bit-identical with
// auditing on and off.
func (s *System) AuditResponses(d mem.Domain, t *audit.Tap) { s.taps[d].tap = t }

// Now returns the current cycle.
func (s *System) Now() uint64 { return s.now }

// Controller exposes the first channel's memory controller — the only one
// of a New-built system (for detailed inspection).
func (s *System) Controller() *memctrl.Controller { return s.chans[0].ctrl }

// Core returns core i.
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// Shaper returns the DAGguise shaper of the domain on the first channel,
// if any.
func (s *System) Shaper(d mem.Domain) (*shaper.Shaper, bool) {
	ports := s.chans[0].ports
	if i := int(d) - 1; i >= 0 && i < len(ports) && ports[i].dag != nil {
		return ports[i].dag, true
	}
	return nil, false
}

// CoreResult is the per-core outcome of a measurement window.
type CoreResult struct {
	Name          string
	Domain        mem.Domain
	IPC           float64
	Instructions  uint64
	MemReads      uint64
	Writebacks    uint64
	BandwidthGBps float64
	// ShaperFakes / ShaperForwarded are zero for unshaped cores.
	ShaperFakes     uint64
	ShaperForwarded uint64
}

// Result is the outcome of a measurement window.
type Result struct {
	Cycles        uint64
	Cores         []CoreResult
	TotalGBps     float64
	RowHits       uint64
	RowMisses     uint64
	RowConflicts  uint64
	QueueMaxDepth int
	// EgressDepths holds each shaped domain's egress queue high-water
	// mark since the system started; EgressMaxDepth is their maximum.
	// The watchdog's livelock invariant bounds these online.
	EgressDepths   map[mem.Domain]int
	EgressMaxDepth int
	// Metrics is the observability snapshot delta over the measurement
	// window (nil unless a registry was attached with Observe).
	Metrics *obs.Snapshot
}

type snapshot struct {
	inst  []uint64
	reads []uint64
	wbs   []uint64
	bytes []uint64
	fakes []uint64
	fwd   []uint64
	total uint64
	cycle uint64
}

func (s *System) snap() snapshot {
	sn := snapshot{cycle: s.now}
	for _, ch := range s.chans {
		sn.total += ch.ctrl.Stats().BytesServed
	}
	for i, c := range s.cores {
		st := c.Stats()
		sn.inst = append(sn.inst, st.Instructions)
		sn.reads = append(sn.reads, st.MemReads)
		sn.wbs = append(sn.wbs, st.Writebacks)
		var bytes, fakes, fwd uint64
		for _, ch := range s.chans {
			bytes += ch.ctrl.BytesForDomain(domainOf(i))
			f, w := ch.ports[i].shaperStats()
			fakes += f
			fwd += w
		}
		sn.bytes = append(sn.bytes, bytes)
		sn.fakes = append(sn.fakes, fakes)
		sn.fwd = append(sn.fwd, fwd)
	}
	return sn
}

// Measure runs warmup cycles (discarded) then a measurement window and
// returns per-core IPC and bandwidth over that window. Both phases run
// through Run, so an invariant violation or a fired context returns its
// error (and the zero Result).
func (s *System) Measure(ctx context.Context, warmup, window uint64) (Result, error) {
	if err := s.Run(ctx, warmup); err != nil {
		return Result{}, err
	}
	before := s.snap()
	mxBefore := s.mx.Snapshot()
	if err := s.Run(ctx, window); err != nil {
		return Result{}, err
	}
	after := s.snap()

	cycles := after.cycle - before.cycle
	res := Result{Cycles: cycles}
	toGBps := func(bytes uint64) float64 {
		return float64(bytes) * CPUFrequencyHz / float64(cycles) / 1e9
	}
	for i := range s.cores {
		res.Cores = append(res.Cores, CoreResult{
			Name:            s.specs[i].Name,
			Domain:          domainOf(i),
			IPC:             float64(after.inst[i]-before.inst[i]) / float64(cycles),
			Instructions:    after.inst[i] - before.inst[i],
			MemReads:        after.reads[i] - before.reads[i],
			Writebacks:      after.wbs[i] - before.wbs[i],
			BandwidthGBps:   toGBps(after.bytes[i] - before.bytes[i]),
			ShaperFakes:     after.fakes[i] - before.fakes[i],
			ShaperForwarded: after.fwd[i] - before.fwd[i],
		})
	}
	res.TotalGBps = toGBps(after.total - before.total)
	if s.mx != nil {
		res.Metrics = s.mx.Snapshot().Sub(mxBefore)
	}
	for _, ch := range s.chans {
		hits, misses, conflicts, _ := ch.dev.Stats()
		res.RowHits += hits
		res.RowMisses += misses
		res.RowConflicts += conflicts
		if q := ch.ctrl.Stats().MaxQueueLen; q > res.QueueMaxDepth {
			res.QueueMaxDepth = q
		}
		for _, p := range ch.shaped {
			if res.EgressDepths == nil {
				res.EgressDepths = make(map[mem.Domain]int)
			}
			// >= so a zero mark still reports the shaped domain.
			if p.hw >= res.EgressDepths[p.dom] {
				res.EgressDepths[p.dom] = p.hw
			}
			if p.hw > res.EgressMaxDepth {
				res.EgressMaxDepth = p.hw
			}
		}
	}
	return res, nil
}
