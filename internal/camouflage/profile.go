package camouflage

import (
	"fmt"
	"sort"

	"dagguise/internal/cache"
	"dagguise/internal/config"
	"dagguise/internal/cpu"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/trace"
)

// ProfileVictim implements Camouflage's offline profiling: run the victim
// alone on an insecure memory system, record when its requests reach the
// memory controller, and distil the inter-injection intervals into a
// target distribution of the requested size (evenly spaced quantiles of
// the observed intervals).
//
// This function also documents the paper's §3.1 criticism by construction:
// the distribution is measured WITHOUT contention, so when co-runners slow
// the victim down, its real injections no longer match the profile and the
// shaping cost balloons — profiling "correctly" would require re-profiling
// against every expected co-runner mix, which DAGguise's versatility
// property avoids.
func ProfileVictim(src trace.Source, samples int, maxRequests int) (Distribution, error) {
	if samples <= 0 {
		samples = 16
	}
	if maxRequests <= 0 {
		maxRequests = 4000
	}
	cfg := config.Default(1, config.Insecure)
	mapper := mem.MustMapper(cfg.Geometry)
	dev := dram.New(cfg.Timing, mapper, cfg.ClosedRow)
	ctrl := memctrl.New(dev, mapper, memctrl.FRFCFS{}, 32)

	hier, err := cache.NewHierarchy(cfg)
	if err != nil {
		return Distribution{}, err
	}
	var times []uint64
	port := &recordingPort{ctrl: ctrl, dom: 1, times: &times}
	next := uint64(0)
	alloc := func() uint64 { next++; return next }
	core := cpu.New(port.dom, src, hier, cfg.Core, port, alloc)

	const maxCycles = 20_000_000
	for now := uint64(0); now < maxCycles && len(times) < maxRequests && !core.Done(); now++ {
		core.Tick(now)
		for _, resp := range ctrl.Tick(now) {
			if err := core.OnResponse(resp, now); err != nil {
				return Distribution{}, err
			}
		}
	}
	if len(times) < 2 {
		return Distribution{}, fmt.Errorf("camouflage: victim produced %d requests; nothing to profile", len(times))
	}
	intervals := make([]uint64, 0, len(times)-1)
	for i := 1; i < len(times); i++ {
		intervals = append(intervals, times[i]-times[i-1])
	}
	sort.Slice(intervals, func(i, j int) bool { return intervals[i] < intervals[j] })
	if samples > len(intervals) {
		samples = len(intervals)
	}
	out := make([]uint64, samples)
	for i := range out {
		idx := i * (len(intervals) - 1) / (samples - 1 + boolToInt(samples == 1))
		out[i] = intervals[idx]
		if out[i] == 0 {
			out[i] = 1
		}
	}
	return Distribution{Intervals: out}, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// recordingPort forwards to the controller and records accepted enqueue
// times (the victim's injection instants).
type recordingPort struct {
	ctrl  *memctrl.Controller
	dom   mem.Domain
	times *[]uint64
}

// Room implements cpu.Port.
func (p *recordingPort) Room(uint64) bool { return p.ctrl.Room(p.dom) }

// TryEnqueue implements cpu.Port.
func (p *recordingPort) TryEnqueue(req mem.Request, now uint64) bool {
	if !p.ctrl.Enqueue(req, now) {
		return false
	}
	*p.times = append(*p.times, now)
	return true
}
