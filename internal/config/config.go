// Package config carries the simulated architecture configuration from
// Table 2 of the paper: core, cache, DRAM geometry and DRAM timing
// parameters, plus the protection-scheme selector used by the evaluation.
package config

import (
	"fmt"

	"dagguise/internal/mem"
)

// Scheme selects the memory-side protection mechanism under evaluation.
type Scheme int

const (
	// Insecure is the unprotected baseline: FR-FCFS scheduling with an
	// open-row policy.
	Insecure Scheme = iota
	// FixedService is the Fixed Service static temporal partitioning
	// baseline (Shafiee et al., MICRO'15).
	FixedService
	// FSBTA is Fixed Service with Bank Triple Alternation, the
	// performance-optimised FS variant the paper compares against.
	FSBTA
	// TemporalPartitioning is coarse time-sliced partitioning
	// (Wang et al., HPCA'14).
	TemporalPartitioning
	// Camouflage is distribution-based traffic shaping
	// (Zhou et al., HPCA'17); insecure against fine-grained attacks.
	Camouflage
	// DAGguise is this paper's rDAG request shaper.
	DAGguise
)

var schemeNames = map[Scheme]string{
	Insecure:             "insecure",
	FixedService:         "fs",
	FSBTA:                "fs-bta",
	TemporalPartitioning: "tp",
	Camouflage:           "camouflage",
	DAGguise:             "dagguise",
}

// String returns the short evaluation name of the scheme.
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ParseScheme maps an evaluation name back to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if n == name {
			return s, nil
		}
	}
	return Insecure, fmt.Errorf("config: unknown scheme %q", name)
}

// Secure reports whether the scheme is intended to block memory timing side
// channels. Camouflage is counted as insecure per the paper's analysis.
func (s Scheme) Secure() bool {
	switch s {
	case FixedService, FSBTA, TemporalPartitioning, DAGguise:
		return true
	}
	return false
}

// DRAMTiming holds DDR3-1600 timing constraints in DRAM (bus) cycles, as
// listed in Table 2. ClockRatio converts them to CPU cycles.
type DRAMTiming struct {
	TRC    int // row cycle: ACT-to-ACT same bank
	TRCD   int // ACT-to-RD/WR
	TRAS   int // ACT-to-PRE
	TFAW   int // four-activate window
	TWR    int // write recovery
	TRP    int // precharge period
	TRTRS  int // rank-to-rank switch
	TCAS   int // CAS latency (read)
	TCWD   int // CAS write delay
	TRTP   int // read-to-precharge
	TBURST int // data burst length on the bus
	TCCD   int // column-to-column delay
	TWTR   int // write-to-read turnaround
	TRRD   int // ACT-to-ACT different banks
	TREFI  int // refresh interval
	TRFC   int // refresh cycle time

	// ClockRatio is CPU cycles per DRAM bus cycle (2.4GHz / 800MHz = 3).
	ClockRatio int
}

// DDR31600 returns the Table 2 timing parameters. tREFI is 7.8us and tRFC
// 260ns, converted to 800MHz bus cycles.
func DDR31600() DRAMTiming {
	return DRAMTiming{
		TRC:        39,
		TRCD:       11,
		TRAS:       28,
		TFAW:       24,
		TWR:        12,
		TRP:        11,
		TRTRS:      2,
		TCAS:       11,
		TCWD:       8,
		TRTP:       6,
		TBURST:     4,
		TCCD:       4,
		TWTR:       6,
		TRRD:       5,
		TREFI:      6240, // 7.8us * 800MHz
		TRFC:       208,  // 260ns * 800MHz
		ClockRatio: 3,
	}
}

// CPU converts a DRAM-cycle quantity to CPU cycles.
func (t DRAMTiming) CPU(drCycles int) uint64 {
	return uint64(drCycles * t.ClockRatio)
}

// Validate checks the parameters for internal consistency.
func (t DRAMTiming) Validate() error {
	if t.ClockRatio <= 0 {
		return fmt.Errorf("config: clock ratio must be positive, got %d", t.ClockRatio)
	}
	if t.TRCD+t.TRTP > t.TRAS+t.TRP {
		// tRAS must cover activation to precharge-eligible; a violation
		// indicates a transcription error in the parameter set.
		return fmt.Errorf("config: tRCD+tRTP=%d exceeds tRAS+tRP=%d", t.TRCD+t.TRTP, t.TRAS+t.TRP)
	}
	for _, p := range []struct {
		name string
		v    int
	}{{"tRC", t.TRC}, {"tRCD", t.TRCD}, {"tRAS", t.TRAS}, {"tRP", t.TRP}, {"tCAS", t.TCAS}, {"tBURST", t.TBURST}} {
		if p.v <= 0 {
			return fmt.Errorf("config: %s must be positive, got %d", p.name, p.v)
		}
	}
	return nil
}

// CacheLevel is one level of the hierarchy.
type CacheLevel struct {
	SizeBytes int
	Ways      int
	LineBytes int
	// LatencyCycles is the round-trip hit latency in CPU cycles.
	LatencyCycles int
}

// Sets returns the number of sets in the level.
func (c CacheLevel) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// CoreConfig models the 8-issue out-of-order core of Table 2.
type CoreConfig struct {
	IssueWidth int
	ROBEntries int
	// MSHRs bounds outstanding misses to memory (memory-level parallelism).
	MSHRs int
	// PrefetchDepth is how many lines ahead the L2 stream prefetcher
	// runs on a confirmed sequential miss stream; 0 disables it.
	PrefetchDepth int
	// PrefetchStreams is the stream-table size (concurrent sequential
	// streams tracked).
	PrefetchStreams int
}

// SystemConfig is the full simulated machine.
type SystemConfig struct {
	Cores    int
	Core     CoreConfig
	L1       CacheLevel
	L2       CacheLevel
	L3       CacheLevel // size is per core and scaled by Cores
	Geometry mem.Geometry
	Timing   DRAMTiming
	Scheme   Scheme
	// RowPolicy: true = closed-row (required by FS-BTA and DAGguise to
	// hide row-buffer state), false = open-row.
	ClosedRow bool
	// FSBTAStrideDRAM overrides the FS-BTA slot stride (DRAM cycles) for
	// sensitivity studies. Zero selects the hazard-safe derivation; the
	// paper's aggressive tRC/3 stride (13 for DDR3-1600) performs better
	// but leaks through write-to-read bus turnarounds (see
	// sched.NewFSBTAWithStride).
	FSBTAStrideDRAM int
}

// Default returns the Table 2 machine with the given core count and scheme.
// Secure schemes automatically select the closed-row policy.
func Default(cores int, scheme Scheme) SystemConfig {
	capacity := 4
	if cores > 2 {
		capacity = 8
	}
	cfg := SystemConfig{
		Cores: cores,
		Core:  CoreConfig{IssueWidth: 8, ROBEntries: 192, MSHRs: 16, PrefetchDepth: 8, PrefetchStreams: 8},
		L1:    CacheLevel{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, LatencyCycles: 4},
		L2:    CacheLevel{SizeBytes: 256 << 10, Ways: 16, LineBytes: 64, LatencyCycles: 13},
		L3:    CacheLevel{SizeBytes: cores * (1 << 20), Ways: 16, LineBytes: 64, LatencyCycles: 42},
		Geometry: mem.Geometry{
			Channels:    1,
			Ranks:       1,
			Banks:       8,
			RowBytes:    8 << 10,
			LineBytes:   64,
			CapacityGiB: capacity,
		},
		Timing:    DDR31600(),
		Scheme:    scheme,
		ClosedRow: scheme != Insecure && scheme != Camouflage,
	}
	return cfg
}

// Validate checks the whole system configuration.
func (c SystemConfig) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("config: cores must be positive, got %d", c.Cores)
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"issue width", c.Core.IssueWidth}, {"ROB entries", c.Core.ROBEntries}, {"MSHRs", c.Core.MSHRs}} {
		if f.v <= 0 {
			return fmt.Errorf("config: core %s must be positive, got %d", f.name, f.v)
		}
	}
	for _, lvl := range []struct {
		name string
		l    CacheLevel
	}{{"L1", c.L1}, {"L2", c.L2}, {"L3", c.L3}} {
		if lvl.l.SizeBytes <= 0 || lvl.l.Ways <= 0 || lvl.l.LineBytes <= 0 {
			return fmt.Errorf("config: %s cache has non-positive parameter", lvl.name)
		}
		if lvl.l.Sets() <= 0 {
			return fmt.Errorf("config: %s cache smaller than one set", lvl.name)
		}
	}
	if _, err := mem.NewMapper(c.Geometry); err != nil {
		return err
	}
	return nil
}
