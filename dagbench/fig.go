package main

import (
	"fmt"
	"time"

	"dagguise/internal/eval"
	"dagguise/internal/mem"
	"dagguise/internal/obs"
	"dagguise/internal/sim"
	"dagguise/internal/victim"
)

// The figure workloads run at one pinned window, shorter than the paper's
// default, so that a run holds many iterations. Their seeds are fixed inside
// eval, so the workload seed does not apply to them.
const (
	figWarmup = 20_000
	figWindow = 200_000
)

// profBuckets maps the self-time metrics to cycle-profiler buckets.
var profBuckets = []struct {
	name   string
	bucket obs.ProfBucket
}{
	{"cpu.self_s", obs.PBCPU},
	{"shaper.self_s", obs.PBShaper},
	{"egress.self_s", obs.PBEgress},
	{"sched.self_s", obs.PBSched},
	{"dram.self_s", obs.PBDRAM},
	{"memctrl.self_s", obs.PBMemctrl},
	{"route.self_s", obs.PBRoute},
	{"harness.self_s", obs.PBHarness},
}

// figure is one eval figure runner at the pinned window.
type figure struct {
	output string   // oracle output name
	apps   []string // co-runner profiles
	// run runs the figure and returns its text and geomeans.
	run func(eval.Options) (text string, fsbta, dagguise float64, err error)
	// record records the victim traces the figure records internally,
	// with the same seeds, to time that step on its own.
	record func() error
}

// runFig10 is the busiest tick loop: eight cores, four shapers and
// memory-bound co-runners.
func runFig10(e *env, traced bool) (sample, error) {
	return runFigure(traced, figure{
		output: "figure10.txt",
		apps:   []string{"lbm"},
		run: func(opts eval.Options) (string, float64, float64, error) {
			r, err := eval.Figure10(opts)
			if err != nil {
				return "", 0, 0, err
			}
			return eval.FormatFigure10(r), r.FSBTAGeomean, r.DAGguiseGeomean, nil
		},
		record: func() error {
			for _, seed := range []int64{11, 13} {
				if _, err := victim.DocDistTrace(seed, victim.DefaultDocDist()); err != nil {
					return err
				}
			}
			for _, seed := range []int64{17, 19} {
				if _, err := victim.DNATrace(seed, victim.DefaultDNA()); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

// runFig9 runs the same layers at the lowest memory-event density: the two
// most compute-bound co-runners on the two-core machine.
func runFig9(e *env, traced bool) (sample, error) {
	return runFigure(traced, figure{
		output: "figure9.txt",
		apps:   []string{"leela", "exchange2"},
		run: func(opts eval.Options) (string, float64, float64, error) {
			r, err := eval.Figure9(opts)
			if err != nil {
				return "", 0, 0, err
			}
			return eval.FormatFigure9(r), r.FSBTAGeomean, r.DAGguiseGeomean, nil
		},
		record: func() error {
			_, err := victim.DocDistTrace(11, victim.DefaultDocDist())
			return err
		},
	})
}

// runFigure makes one iteration of a figure workload. Set-up ends when
// eval first hands a built system to Attach: it covers the victim trace
// recording and the first sim.New. A traced iteration gives every system
// its own cycle profiler and reads the component counters afterwards.
func runFigure(traced bool, f figure) (sample, error) {
	s := sample{layers: map[string]float64{}}
	if traced {
		t := time.Now()
		if err := f.record(); err != nil {
			return s, err
		}
		s.layers["victim.record_s"] = time.Since(t).Seconds()
	}
	var systems []*sim.System
	var profs []*obs.CycleProfile
	var p phase // one segment per system
	opts := eval.Options{
		Warmup:  figWarmup,
		Window:  figWindow,
		Apps:    f.apps,
		Workers: 1,
		Attach: func(sys *sim.System) {
			p.mark()
			systems = append(systems, sys)
			if traced {
				prof := obs.NewCycleProfile()
				sys.Profile(prof)
				profs = append(profs, prof)
			}
		},
	}
	start := time.Now()
	text, fsbta, dagguise, err := f.run(opts)
	if err != nil {
		return s, err
	}
	if len(systems) == 0 {
		return s, fmt.Errorf("%s: no system was built", f.output)
	}
	p.end(&s)
	s.setup = p.marks[0].Sub(start)
	for _, sys := range systems {
		s.cycles += sys.Now()
	}
	s.fixed = map[string]string{f.output: text}
	if !traced {
		return s, nil
	}
	countSystems(s.layers, systems)
	s.layers["eval.fsbta_norm_ipc"] = fsbta
	s.layers["eval.dagguise_norm_ipc"] = dagguise
	var covered int64
	for _, prof := range profs {
		for b := 0; b < obs.NumProfBuckets; b++ {
			covered += prof.Ns(obs.ProfBucket(b))
		}
		for _, pb := range profBuckets {
			s.layers[pb.name] += float64(prof.Ns(pb.bucket)) / 1e9
		}
	}
	s.layers["trace.coverage"] = float64(covered) / float64(s.wall)
	return s, nil
}

// countSystems adds the component counters of every system, warmup
// included, into l.
func countSystems(l map[string]float64, systems []*sim.System) {
	var cycles uint64
	for _, sys := range systems {
		cycles += sys.Now()
		for i := 0; i < sys.NumDomains()-1; i++ {
			cs := sys.Core(i).Stats()
			l["cpu.instructions"] += float64(cs.Instructions)
			l["cpu.stall_cycles"] += float64(cs.StallCycles)
			l["cpu.mem_reads"] += float64(cs.MemReads)
			if sh, ok := sys.Shaper(mem.Domain(i + 1)); ok {
				ss := sh.Stats()
				l["shaper.forwarded"] += float64(ss.Forwarded)
				l["shaper.fakes"] += float64(ss.Fakes)
				l["shaper.rejected"] += float64(ss.Rejected)
				l["shaper.delay_cycles"] += float64(ss.DelaySum)
			}
		}
		ctrl := sys.Controller()
		st := ctrl.Stats()
		l["memctrl.issued"] += float64(st.Issued)
		l["memctrl.queueing_cycles"] += float64(st.TotalQueueing)
		l["memctrl.max_queue"] = max(l["memctrl.max_queue"], float64(st.MaxQueueLen))
		hits, misses, conflicts, _ := ctrl.Device().Stats()
		l["dram.row_hits"] += float64(hits)
		l["dram.row_misses"] += float64(misses)
		l["dram.row_conflicts"] += float64(conflicts)
	}
	l["sim.cycles"] = float64(cycles)
	l["sim.mem_events_per_kcycle"] = l["memctrl.issued"] * 1000 / float64(cycles)
}
