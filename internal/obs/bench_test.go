package obs

import "testing"

// BenchmarkDisabledCollection measures the cost components pay per
// observability call site when collection is off — the nil-receiver check
// that must keep the simulator's disabled-path regression under 2%.
func BenchmarkDisabledCollection(b *testing.B) {
	var r *Registry
	var tr *Tracer
	var p *CycleProfile
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Inc(CtrRowHits, 1)
		r.Observe(HistReqLatency, 1, uint64(i))
		tr.Emit(Event{Cycle: uint64(i)})
		p.Lap(PBCPU)
	}
}

// BenchmarkCycleProfileLap measures the enabled lap cost: one monotonic
// clock read plus two array writes per call site.
func BenchmarkCycleProfileLap(b *testing.B) {
	p := NewCycleProfile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Lap(PBCPU)
	}
}

func BenchmarkRegistryInc(b *testing.B) {
	r := NewRegistry(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Inc(CtrRowHits, 1)
	}
}

func BenchmarkRegistryObserve(b *testing.B) {
	r := NewRegistry(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Observe(HistReqLatency, 1, uint64(i))
	}
}

func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracer(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Cycle: uint64(i), Comp: CompBank, Kind: EvRowHit})
	}
}
