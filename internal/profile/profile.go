// Package profile implements DAGguise's offline profiling phase (§4.3):
// sweep an rDAG template search space, run the victim *alone* under each
// candidate defense rDAG, record its IPC and the bandwidth the rDAG
// allocates, and select a cost-effective defense at the knee of the
// IPC-versus-allocated-bandwidth curve. Because rDAGs are versatile, no
// knowledge of co-running applications is needed — this is the profiling
// cost advantage over Camouflage the paper claims.
package profile

import (
	"context"
	"fmt"
	"sort"

	"dagguise/internal/config"
	"dagguise/internal/rdag"
	"dagguise/internal/sim"
	"dagguise/internal/trace"
)

// Point is one candidate rDAG's measurement (one point in Figure 7).
type Point struct {
	Template rdag.Template
	// IPC is the victim's IPC when shaped by this candidate, alone on
	// the machine.
	IPC float64
	// NormalizedIPC is IPC / unshaped baseline IPC.
	NormalizedIPC float64
	// AllocatedGBps is the bandwidth the defense rDAG claims from the
	// controller — real plus fake emissions — which is what co-runners
	// lose.
	AllocatedGBps float64
}

// Result is the full sweep outcome.
type Result struct {
	// BaselineIPC is the victim's unshaped, uncontended IPC.
	BaselineIPC float64
	// Points holds one entry per candidate, in candidate order.
	Points []Point
	// Selected is the chosen defense rDAG.
	Selected rdag.Template
}

// Options tunes the sweep.
type Options struct {
	// Warmup and Window are the per-candidate simulation lengths in
	// cycles.
	Warmup, Window uint64
	// KneeFraction selects the cheapest candidate achieving at least
	// this fraction of the best shaped IPC (default 0.9).
	KneeFraction float64
	// Attach, when non-nil, is called on every candidate's freshly built
	// system before it runs (observability wiring).
	Attach func(*sim.System)
}

// DefaultOptions returns sweep lengths adequate for the bundled victims.
func DefaultOptions() Options {
	return Options{Warmup: 100_000, Window: 1_600_000, KneeFraction: 0.85}
}

// Sweep profiles the victim under every candidate in the space. mkVictim
// must return a fresh source for each run (sources are stateful).
func Sweep(mkVictim func() trace.Source, space rdag.Space, opts Options) (*Result, error) {
	if opts.Window == 0 {
		opts = DefaultOptions()
	}
	if opts.KneeFraction <= 0 || opts.KneeFraction > 1 {
		opts.KneeFraction = 0.9
	}
	candidates := space.Candidates()
	if len(candidates) == 0 {
		return nil, fmt.Errorf("profile: empty search space")
	}

	baseline, err := runOnce(mkVictim(), config.Insecure, rdag.Template{}, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{BaselineIPC: baseline.Cores[0].IPC}
	if res.BaselineIPC <= 0 {
		return nil, fmt.Errorf("profile: victim baseline IPC is zero")
	}

	for _, tpl := range candidates {
		r, err := runOnce(mkVictim(), config.DAGguise, tpl, opts)
		if err != nil {
			return nil, err
		}
		core := r.Cores[0]
		emissions := core.ShaperFakes + core.ShaperForwarded
		alloc := float64(emissions) * 64 * sim.CPUFrequencyHz / float64(r.Cycles) / 1e9
		res.Points = append(res.Points, Point{
			Template:      tpl,
			IPC:           core.IPC,
			NormalizedIPC: core.IPC / res.BaselineIPC,
			AllocatedGBps: alloc,
		})
	}
	res.Selected = selectKnee(res.Points, opts.KneeFraction)
	return res, nil
}

func runOnce(src trace.Source, scheme config.Scheme, tpl rdag.Template, opts Options) (sim.Result, error) {
	cfg := config.Default(1, scheme)
	if tpl.Banks == 0 {
		tpl.Banks = cfg.Geometry.Banks
	}
	sys, err := sim.New(cfg, []sim.CoreSpec{{
		Name:      "victim",
		Source:    &trace.Loop{Inner: src},
		Protected: scheme == config.DAGguise,
		Defense:   tpl,
	}})
	if err != nil {
		return sim.Result{}, err
	}
	if opts.Attach != nil {
		opts.Attach(sys)
	}
	return sys.Measure(context.TODO(), opts.Warmup, opts.Window)
}

// selectKnee picks the cheapest candidate (by allocated bandwidth) whose
// shaped IPC reaches kneeFraction of the best candidate's IPC.
func selectKnee(points []Point, kneeFraction float64) rdag.Template {
	best := 0.0
	for _, p := range points {
		if p.IPC > best {
			best = p.IPC
		}
	}
	threshold := best * kneeFraction
	idx := -1
	for i, p := range points {
		if p.IPC < threshold {
			continue
		}
		if idx < 0 || p.AllocatedGBps < points[idx].AllocatedGBps {
			idx = i
		}
	}
	if idx < 0 {
		idx = 0
	}
	return points[idx].Template
}

// SeriesBySequences groups the sweep points by parallel-sequence count and
// orders each series by edge weight, matching the Figure 7(a)/(b) layout.
func (r *Result) SeriesBySequences() map[int][]Point {
	out := make(map[int][]Point)
	for _, p := range r.Points {
		out[p.Template.Sequences] = append(out[p.Template.Sequences], p)
	}
	for _, pts := range out {
		sort.Slice(pts, func(i, j int) bool { return pts[i].Template.Weight < pts[j].Template.Weight })
	}
	return out
}
