package dagguise

import (
	"dagguise/internal/trace"
	"dagguise/internal/victim"
	"dagguise/internal/workload"
)

// TraceOp is one memory operation of a program trace.
type TraceOp = trace.Op

// TraceSource yields the operations of one program.
type TraceSource = trace.Source

// TraceSlice is a finite in-memory trace.
type TraceSlice = trace.Slice

// LoopTrace wraps a finite trace source into an infinite one.
func LoopTrace(inner TraceSource) TraceSource { return &trace.Loop{Inner: inner} }

// TraceRecorder records the memory behaviour of an instrumented
// application into a trace (the victim implementations use one).
type TraceRecorder = trace.Recorder

// NewTraceRecorder builds an empty recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// WorkloadProfile parameterises a synthetic SPEC-like co-runner.
type WorkloadProfile = workload.Profile

// Workloads returns the fifteen SPEC CPU2017-like co-runner profiles used
// by the evaluation (Figure 9's x-axis).
func Workloads() []WorkloadProfile { return workload.Profiles() }

// WorkloadByName returns the named profile.
func WorkloadByName(name string) (WorkloadProfile, error) { return workload.ByName(name) }

// NewWorkloadSource builds an infinite deterministic trace source for a
// profile; the seed also separates the address space of co-scheduled
// copies.
func NewWorkloadSource(p WorkloadProfile, seed int64) (TraceSource, error) {
	return workload.NewSource(p, seed)
}

// DocDistConfig sizes the Document Distance victim.
type DocDistConfig = victim.DocDistConfig

// DNAConfig sizes the DNA sequence-matching victim.
type DNAConfig = victim.DNAConfig

// DefaultDocDistConfig returns the evaluation's DocDist sizing.
func DefaultDocDistConfig() DocDistConfig { return victim.DefaultDocDist() }

// DefaultDNAConfig returns the evaluation's DNA sizing.
func DefaultDNAConfig() DNAConfig { return victim.DefaultDNA() }

// DocDistTrace runs the real Document Distance computation on a private
// document derived from secretSeed and records its memory trace — the
// secret-dependent access pattern DAGguise hides.
func DocDistTrace(secretSeed int64, cfg DocDistConfig) (*TraceSlice, error) {
	return victim.DocDistTrace(secretSeed, cfg)
}

// DNATrace runs the real DNA k-mer alignment on a private sequence derived
// from secretSeed against a public indexed sequence and records its memory
// trace.
func DNATrace(secretSeed int64, cfg DNAConfig) (*TraceSlice, error) {
	return victim.DNATrace(secretSeed, cfg)
}
