// Package sim wires the full simulated machine together: trace-driven
// cores with private cache hierarchies, optional DAGguise or Camouflage
// shapers per protected domain, a shared memory controller with the
// configured scheduling policy (insecure FR-FCFS, FS, FS-BTA, TP), and the
// DRAM device model. It drives everything cycle by cycle and reports
// per-core IPC and bandwidth, the measurements behind Figures 7, 9 and 10.
//
// The same engine also simulates the fleet's multi-channel machine
// (NewCluster): only the tenants and the channel count differ, everything
// from a tenant's hand-over onward is shared.
package sim

import (
	"fmt"

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
}

// System is a fully wired simulated machine: tenants issuing into one or
// more channel units through per-domain ports. A tenant is one security
// domain's traffic source, tenant i being domain i+1: closed-loop cores
// for New, open-loop generators for NewCluster. The tick loop walks the
// concrete slices so the per-tenant idle check stays a direct, inlinable
// call even with hundreds of generators.
type System struct {
	scheme config.Scheme
	cores  []*cpu.Core  // the tenants of a New-built system
	specs  []CoreSpec   // their specs
	gens   []*generator // the tenants of a NewCluster-built system
	chans  []*channel

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
	policy, err := buildPolicy(cfg, specs)
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
		hier, err := cache.NewHierarchy(cfg)
		if err != nil {
			return nil, err
		}
		p := ch.ports[i]
		if spec.Protected {
			if err := s.shapeCore(ch, p, spec); err != nil {
				return nil, err
			}
		}
		s.cores = append(s.cores, cpu.New(p.dom, spec.Source, hier, cfg.Core, p, alloc))
	}
	s.taps = make([]tapSlot, len(s.cores)+1)
	return s, nil
}

func (s *System) alloc() uint64 {
	s.nextID++
	return s.nextID
}

// buildPolicy selects the scheduling policy for the configured scheme.
func buildPolicy(cfg config.SystemConfig, specs []CoreSpec) (memctrl.Scheduler, error) {
	switch cfg.Scheme {
	case config.Insecure, config.Camouflage:
		return memctrl.FRFCFS{}, nil
	case config.DAGguise:
		// DAGguise keeps the high-performance scheduler: dynamic
		// contention is safe because the shaped stream is already
		// secret-independent.
		return memctrl.FRFCFS{}, nil
	case config.FixedService, config.FSBTA, config.TemporalPartitioning:
		groups := buildGroups(specs)
		switch cfg.Scheme {
		case config.FixedService:
			return sched.NewFixedService(cfg.Timing, groups), nil
		case config.FSBTA:
			if cfg.FSBTAStrideDRAM > 0 {
				return sched.NewFSBTAWithStride(cfg.Timing, groups, cfg.FSBTAStrideDRAM), nil
			}
			return sched.NewFSBTA(cfg.Timing, groups), nil
		default:
			return sched.NewTemporalPartitioning(cfg.Timing, groups, 96), nil
		}
	default:
		return nil, fmt.Errorf("sim: unsupported scheme %v", cfg.Scheme)
	}
}

// buildGroups constructs the slot rotation for FS-family arbiters: each
// protected core alone in its group, all unprotected cores sharing one
// group that appears once per unprotected core. On the paper's eight-core
// setup this yields the 4 x 1/8 victim slots + 4/8 shared SPEC slots.
func buildGroups(specs []CoreSpec) []sched.Group {
	var unprotected sched.Group
	for i, spec := range specs {
		if !spec.Protected {
			unprotected = append(unprotected, domainOf(i))
		}
	}
	var groups []sched.Group
	for i, spec := range specs {
		if spec.Protected {
			groups = append(groups, sched.Group{domainOf(i)})
		} else {
			groups = append(groups, unprotected)
		}
	}
	return groups
}

// shapeCore puts a protected core's shaper in front of its port. FS-family
// schemes protect at the scheduler and insecure runs unshaped by
// definition, so both leave the port direct.
func (s *System) shapeCore(ch *channel, p *port, spec CoreSpec) error {
	switch s.scheme {
	case config.DAGguise:
		tpl := spec.Defense
		if tpl.Sequences == 0 {
			tpl = rdag.Template{Sequences: 4, Weight: 300, WriteRatio: 0.001, Banks: ch.mapper.BankCount()}
		}
		driver, err := rdag.NewPatternDriver(tpl)
		if err != nil {
			return err
		}
		ch.shape(p, shaper.New(p.dom, driver, ch.mapper, privateQueueDepth, s.alloc, int64(p.dom)*7919), nil)
	case config.Camouflage:
		dist := spec.Distribution
		if len(dist.Intervals) == 0 {
			dist = camouflage.Distribution{Intervals: []uint64{200, 300, 400, 600}}
		}
		sh, err := camouflage.New(p.dom, dist, ch.mapper, privateQueueDepth, s.alloc, int64(p.dom)*104729)
		if err != nil {
			return err
		}
		ch.shape(p, nil, sh)
	}
	return nil
}

// Tick advances the whole machine one cycle. It panics on an invariant
// violation (the legacy unchecked contract); use TickChecked, RunChecked or
// MeasureChecked to receive a structured *SimError instead.
func (s *System) Tick() {
	if err := s.tick(); err != nil {
		panic(err)
	}
}

// TickChecked advances the machine one cycle and reports any invariant
// violation as a *SimError.
func (s *System) TickChecked() error { return s.tick() }

func (s *System) tick() error {
	now := s.now
	// The profiler is a telescoping lap clock: each Lap charges the time
	// since the previous lap (anywhere) to its bucket. Lapping PBHarness
	// first attributes everything since the last tick ended — the caller's
	// loop, checkProgress, bench harness glue — to the harness bucket, so
	// the per-component buckets stay pure and the report explains ~100%
	// of wall time.
	s.prof.Lap(obs.PBHarness)
	s.portErr = nil
	for _, c := range s.cores {
		c.Tick(now)
	}
	for _, g := range s.gens {
		g.Tick(now)
	}
	s.prof.Lap(obs.PBCPU)
	if s.portErr != nil {
		return s.errf(InvariantProtocol, 0, s.portErr, "request misrouted at tenant port")
	}
	delivered := false
	for _, ch := range s.chans {
		d, err := s.tickChannel(ch, now)
		if err != nil {
			return err
		}
		delivered = delivered || d
	}
	s.now++
	return s.checkProgress(delivered)
}

// checkProgress enforces the deadlock invariant: with pending work, some
// instruction must retire or some response must be delivered within the
// stall budget.
func (s *System) checkProgress(delivered bool) error {
	if s.wd.StallBudget == 0 {
		return nil
	}
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
	// An open-loop generator never runs out of work.
	return len(s.gens) == 0
}

// Run advances the machine by the given number of cycles, panicking on an
// invariant violation (the legacy unchecked contract).
func (s *System) Run(cycles uint64) {
	if err := s.run(cycles); err != nil {
		panic(err)
	}
}

// run advances the machine by the given number of cycles, stopping at the
// first invariant violation.
func (s *System) run(cycles uint64) error {
	for end := s.now + cycles; s.now < end; {
		if err := s.tick(); err != nil {
			return err
		}
	}
	return nil
}

// RunChecked advances the machine by the given number of cycles with the
// forward-progress watchdog armed, returning a structured *SimError the
// moment an invariant fails (instead of panicking or spinning forever). If
// no watchdog was configured with SetWatchdog, DefaultWatchdog is used.
func (s *System) RunChecked(cycles uint64) error {
	restore := s.armWatchdog()
	defer restore()
	return s.run(cycles)
}

// armWatchdog installs the default watchdog if none is configured and
// returns a func restoring the previous state.
func (s *System) armWatchdog() func() {
	prev := s.wd
	if s.wd == (Watchdog{}) {
		s.wd = DefaultWatchdog()
		s.lastProgress = s.now
	}
	return func() { s.wd = prev }
}

// SetWatchdog configures the forward-progress invariants for the Checked
// APIs. Fields left zero disable the corresponding check.
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
func (s *System) NumDomains() int { return len(s.cores) + len(s.gens) + 1 }

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
// of a New-built system (for attack experiments and detailed inspection).
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
// returns per-core IPC and bandwidth over that window. It panics on an
// invariant violation; use MeasureChecked for the structured-error form.
func (s *System) Measure(warmup, window uint64) Result {
	res, err := s.measureWith(s.run, warmup, window)
	if err != nil {
		panic(err)
	}
	return res
}

// MeasureChecked is Measure with the forward-progress watchdog armed: it
// returns a *SimError (and the zero Result) the moment an invariant fails
// during warmup or measurement.
func (s *System) MeasureChecked(warmup, window uint64) (Result, error) {
	return s.measureWith(s.RunChecked, warmup, window)
}

// measureWith is the measurement core, parameterised over the run loop so
// the checked and context-aware forms share the exact accounting.
func (s *System) measureWith(run func(uint64) error, warmup, window uint64) (Result, error) {
	if err := run(warmup); err != nil {
		return Result{}, err
	}
	before := s.snap()
	mxBefore := s.mx.Snapshot()
	if err := run(window); err != nil {
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
