// Package workload provides the fifteen SPEC CPU2017-like co-runner
// profiles used by the evaluation (Figures 9 and 10). Each profile is a
// parameterised synthetic trace generator whose knobs — memory-op density,
// hot-set hit fraction, streaming behaviour, dependency fraction and write
// fraction — are set to reproduce the published memory characteristics of
// the corresponding benchmark (memory-bound lbm/fotonik3d/roms at tens of
// LLC misses per kilo-instruction down to compute-bound exchange2/leela
// below one). The absolute numbers need not match gem5 checkpoints; what
// the experiments need is the *range* of bandwidth demands and latency
// sensitivities across co-runners.
package workload

import (
	"fmt"
	"sort"

	"dagguise/internal/mem"
	"dagguise/internal/rng"
	"dagguise/internal/trace"
)

// Profile parameterises one synthetic application.
type Profile struct {
	// Name is the SPEC benchmark this profile stands in for.
	Name string
	// MeanGap is the mean number of non-memory instructions between
	// memory operations (geometrically distributed).
	MeanGap int
	// HotFraction of accesses go to a small cache-resident working set.
	HotFraction float64
	// StreamFraction of the remaining accesses walk sequential lines
	// (high row locality, bank interleaved); the rest are uniform random
	// over a large footprint (row conflicts, no locality).
	StreamFraction float64
	// DepFraction of memory ops depend on their predecessor (serialised,
	// pointer-chasing style — low memory-level parallelism).
	DepFraction float64
	// WriteFraction of memory ops are stores.
	WriteFraction float64
}

// Validate checks the profile's parameters.
func (p Profile) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"hot", p.HotFraction}, {"stream", p.StreamFraction},
		{"dep", p.DepFraction}, {"write", p.WriteFraction},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("workload %s: %s fraction %f outside [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.MeanGap < 0 {
		return fmt.Errorf("workload %s: negative mean gap", p.Name)
	}
	return nil
}

// Profiles returns the fifteen co-runner profiles, ordered as in Figure 9.
func Profiles() []Profile {
	return []Profile{
		{Name: "blender", MeanGap: 90, HotFraction: 0.90, StreamFraction: 0.70, DepFraction: 0.15, WriteFraction: 0.25},
		{Name: "cactuBSSN", MeanGap: 45, HotFraction: 0.72, StreamFraction: 0.80, DepFraction: 0.10, WriteFraction: 0.30},
		{Name: "cam4", MeanGap: 55, HotFraction: 0.75, StreamFraction: 0.75, DepFraction: 0.12, WriteFraction: 0.28},
		{Name: "deepsjeng", MeanGap: 110, HotFraction: 0.93, StreamFraction: 0.20, DepFraction: 0.50, WriteFraction: 0.20},
		{Name: "exchange2", MeanGap: 260, HotFraction: 0.995, StreamFraction: 0.30, DepFraction: 0.30, WriteFraction: 0.15},
		{Name: "fotonik3d", MeanGap: 30, HotFraction: 0.55, StreamFraction: 0.90, DepFraction: 0.05, WriteFraction: 0.30},
		{Name: "lbm", MeanGap: 25, HotFraction: 0.45, StreamFraction: 0.92, DepFraction: 0.05, WriteFraction: 0.40},
		{Name: "leela", MeanGap: 190, HotFraction: 0.985, StreamFraction: 0.25, DepFraction: 0.55, WriteFraction: 0.20},
		{Name: "nab", MeanGap: 80, HotFraction: 0.88, StreamFraction: 0.60, DepFraction: 0.20, WriteFraction: 0.22},
		{Name: "namd", MeanGap: 120, HotFraction: 0.94, StreamFraction: 0.65, DepFraction: 0.15, WriteFraction: 0.20},
		{Name: "povray", MeanGap: 170, HotFraction: 0.975, StreamFraction: 0.35, DepFraction: 0.35, WriteFraction: 0.18},
		{Name: "roms", MeanGap: 35, HotFraction: 0.62, StreamFraction: 0.85, DepFraction: 0.08, WriteFraction: 0.32},
		{Name: "wrf", MeanGap: 50, HotFraction: 0.74, StreamFraction: 0.80, DepFraction: 0.10, WriteFraction: 0.30},
		{Name: "x264", MeanGap: 95, HotFraction: 0.91, StreamFraction: 0.70, DepFraction: 0.20, WriteFraction: 0.25},
		{Name: "xz", MeanGap: 70, HotFraction: 0.82, StreamFraction: 0.30, DepFraction: 0.45, WriteFraction: 0.25},
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// Names returns all profile names in order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// generator is the infinite trace source for a profile.
type generator struct {
	p    Profile
	seed int64
	rng  *rng.Rand

	hotLines  []uint64
	streamPos uint64
	base      uint64
}

const (
	lineBytes      = 64
	hotSetLines    = 512     // 32 KiB: resident in L1/L2
	footprintLines = 1 << 22 // 256 MiB random-access footprint
)

// NewSource builds an infinite deterministic trace source for the profile.
// The seed also offsets the address space so co-scheduled copies do not
// share lines.
func NewSource(p Profile, seed int64) (trace.Source, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &generator{p: p, seed: seed}
	g.Reset()
	return g, nil
}

// MustSource panics on an invalid profile.
func MustSource(p Profile, seed int64) trace.Source {
	s, err := NewSource(p, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Reset implements trace.Source.
func (g *generator) Reset() {
	g.rng = rng.New(g.seed)
	g.base = uint64(g.seed&0xff) << 32
	g.hotLines = make([]uint64, hotSetLines)
	for i := range g.hotLines {
		g.hotLines[i] = g.base + uint64(i)*lineBytes
	}
	g.streamPos = 0
}

// Next implements trace.Source; it never exhausts.
func (g *generator) Next() (trace.Op, bool) {
	p := g.p
	var addr uint64
	r := g.rng.Float64()
	switch {
	case r < p.HotFraction:
		addr = g.hotLines[g.rng.Intn(len(g.hotLines))]
	case g.rng.Float64() < p.StreamFraction:
		g.streamPos++
		addr = g.base + uint64(1<<30) + g.streamPos*lineBytes
	default:
		addr = g.base + uint64(2<<30) + uint64(g.rng.Intn(footprintLines))*lineBytes
	}
	kind := mem.Read
	if g.rng.Float64() < p.WriteFraction {
		kind = mem.Write
	}
	dep := 0
	if kind == mem.Read && g.rng.Float64() < p.DepFraction {
		dep = 1
	}
	gap := 0
	if p.MeanGap > 0 {
		// Geometric with the configured mean.
		gap = geometric(g.rng, p.MeanGap)
	}
	return trace.Op{Addr: addr, Kind: kind, Gap: gap, Dep: dep}, true
}

// geometric samples a geometric distribution with the given mean.
func geometric(rnd *rng.Rand, mean int) int {
	// P(stop) per unit = 1/(mean+1); inverse-CDF sampling would need
	// log; a simple loop is fine because mean values are modest.
	p := 1.0 / float64(mean+1)
	n := 0
	for rnd.Float64() > p && n < mean*10 {
		n++
	}
	return n
}

// SortedByIntensity returns profile names ordered from most to least
// memory-intensive (by 1000/(MeanGap+1) * miss fraction), useful for
// choosing heavy/light co-runner mixes.
func SortedByIntensity() []string {
	ps := Profiles()
	sort.Slice(ps, func(i, j int) bool {
		return intensity(ps[i]) > intensity(ps[j])
	})
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

func intensity(p Profile) float64 {
	return (1 - p.HotFraction) * 1000 / float64(p.MeanGap+1)
}
