// Package dagguise is a from-scratch reproduction of "DAGguise: Mitigating
// Memory Timing Side Channels" (Deutsch, Yang, Bourgeat, Drean, Emer, Yan —
// ASPLOS 2022): a request shaper that re-times a protected application's
// memory traffic to follow a secret-independent Directed Acyclic Request
// Graph (rDAG), together with everything needed to evaluate it — a
// transaction-level DDR3 + memory-controller simulator, trace-driven
// out-of-order cores, the FS / FS-BTA / TP / Camouflage baselines, attack
// and leakage measurement machinery, an offline profiling phase, a SAT
// solver driving a k-induction security proof, and an area model.
//
// The package is a facade over the internal subsystems; see DESIGN.md for
// the full inventory and EXPERIMENTS.md for the paper-versus-measured
// results of every table and figure.
//
// # Quick start
//
//	tpl := dagguise.Template{Sequences: 4, Weight: 300, WriteRatio: 0.001, Banks: 8}
//	sys, err := dagguise.NewSystem(dagguise.DefaultConfig(2, dagguise.DAGguise), []dagguise.CoreSpec{
//		{Name: "victim", Source: victimTrace, Protected: true, Defense: tpl},
//		{Name: "co-runner", Source: appTrace},
//	})
//	res, err := sys.Measure(context.Background(), 30_000, 400_000)
//
// Tick, Run and Measure are the only ways to advance a System; each
// returns an error, and Run and Measure take a context. The
// forward-progress watchdog stays off until SetWatchdog arms it (for
// example with DefaultWatchdog).
package dagguise

import (
	"dagguise/internal/config"
	"dagguise/internal/sim"
)

// Scheme selects the memory protection mechanism.
type Scheme = config.Scheme

// The evaluated schemes.
const (
	// Insecure is the unprotected FR-FCFS / open-row baseline.
	Insecure = config.Insecure
	// FixedService is static slot-based temporal partitioning.
	FixedService = config.FixedService
	// FSBTA is Fixed Service with Bank Triple Alternation.
	FSBTA = config.FSBTA
	// TemporalPartitioning is coarse time-sliced partitioning.
	TemporalPartitioning = config.TemporalPartitioning
	// Camouflage is distribution-based traffic shaping (insecure against
	// fine-grained attacks; included as a baseline).
	Camouflage = config.Camouflage
	// DAGguise is the paper's rDAG request shaper.
	DAGguise = config.DAGguise
)

// SystemConfig is the simulated machine configuration (Table 2).
type SystemConfig = config.SystemConfig

// DRAMTiming is the DDR3 timing parameter set in DRAM cycles.
type DRAMTiming = config.DRAMTiming

// CacheLevel configures one cache level.
type CacheLevel = config.CacheLevel

// CoreConfig configures the out-of-order core model.
type CoreConfig = config.CoreConfig

// DefaultConfig returns the paper's Table 2 machine with the given core
// count and protection scheme.
func DefaultConfig(cores int, scheme Scheme) SystemConfig {
	return config.Default(cores, scheme)
}

// DDR31600 returns the Table 2 DDR3-1600 timing parameters.
func DDR31600() DRAMTiming { return config.DDR31600() }

// ParseScheme maps an evaluation name ("insecure", "fs", "fs-bta", "tp",
// "camouflage", "dagguise") to a Scheme.
func ParseScheme(name string) (Scheme, error) { return config.ParseScheme(name) }

// System is a fully wired simulated machine: cores, caches, shapers,
// memory controller and DRAM.
type System = sim.System

// CoreSpec describes one core's workload and protection needs.
type CoreSpec = sim.CoreSpec

// CoreResult is the per-core outcome of a measurement window.
type CoreResult = sim.CoreResult

// Result is the outcome of a measurement window.
type Result = sim.Result

// Watchdog configures the forward-progress invariants (the deadlock stall
// budget and the egress high-water mark) a System checks on every tick
// once SetWatchdog arms them.
type Watchdog = sim.Watchdog

// DefaultWatchdog returns the stall and egress budgets the command-line
// tools arm. Nothing arms a watchdog implicitly.
func DefaultWatchdog() Watchdog { return sim.DefaultWatchdog() }

// CPUFrequencyHz is the simulated core clock.
const CPUFrequencyHz = sim.CPUFrequencyHz

// NewSystem builds a simulated machine from the configuration and per-core
// specs. The spec count must equal cfg.Cores.
func NewSystem(cfg SystemConfig, specs []CoreSpec) (*System, error) {
	return sim.New(cfg, specs)
}
