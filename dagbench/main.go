// Command dagbench is the repository's benchmark. It runs one workload
// repeatedly for a fixed time, checks every output against the oracle in
// golden.json, and prints one JSON result line as the last line of its
// standard output:
//
//	bash dagbench/run.sh --workload fig10-lbm --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured on
// iterations with no tracing attached. With --trace 1 it holds the
// per-layer metrics: iterations alternate between untraced and traced, the
// layer figures come from the traced ones, and the ratio of the two wall
// times is the tracing overhead. NOTES.md describes the workloads, the
// metrics and the recorded run-to-run spread.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs pins GOMAXPROCS. One thread keeps the Go scheduler out of the
// figures, and obs.CycleProfile is not safe for concurrent use.
const procs = 1

// minPlain and minTraced are the fewest untraced and traced iterations a
// run makes, however long they take.
const (
	minPlain  = 3
	minTraced = 2
)

// inputSets is how many seeded input sets the oracle records; the workload
// seed selects input set seed mod inputSets.
const inputSets = 16

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is the outcome of one iteration of a workload.
type sample struct {
	setup time.Duration // host time before the timed phase
	wall  time.Duration // host time of the timed phase
	// segs splits wall at points every iteration passes in the same order
	// (each simulated system, each fleet shard, each security step).
	segs   []time.Duration
	cycles uint64  // simulated cycles run in the timed phase
	rss    float64 // peak resident set size during the iteration, MiB
	// layers holds per-layer values; traced iterations fill the ones the
	// workload exercises, measure adds the go.* allocation figures.
	layers map[string]float64
	// fixed and seeded are the outputs the oracle compares: fixed ones do
	// not depend on the workload seed, seeded ones do.
	fixed, seeded map[string]string
}

// workload is one benchmark input. seeded reports whether the workload
// seed changes its inputs; run makes one iteration.
type workload struct {
	name   string
	seeded bool
	run    func(e *env, traced bool) (sample, error)
}

var workloads = []workload{
	{name: "fig10-lbm", run: runFig10},
	{name: "fig9-compute", run: runFig9},
	{name: "fleet-ni", seeded: true, run: runFleet},
	{name: "security", seeded: true, run: runSecurity},
}

// env carries what an iteration needs besides its mode.
type env struct {
	input   int    // seeded input set, 0..inputSets-1
	scratch string // directory for the iteration's files
	iter    int    // iteration index within the run
	checks  *checks
}

// phase times the timed phase of an iteration: mark opens it and marks
// each segment boundary, end closes it into a sample. mark may be called
// from several goroutines.
type phase struct {
	mu    sync.Mutex
	marks []time.Time
}

func (p *phase) mark() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.marks = append(p.marks, time.Now())
}

func (p *phase) end(s *sample) {
	p.mark()
	p.mu.Lock()
	defer p.mu.Unlock()
	s.wall = p.marks[len(p.marks)-1].Sub(p.marks[0])
	s.segs = s.segs[:0]
	for i := 1; i < len(p.marks); i++ {
		s.segs = append(s.segs, p.marks[i].Sub(p.marks[i-1]))
	}
}

// quietWall estimates the timed phase's wall time on a quiet host: the sum,
// over its segments, of each segment's fastest time in the run. On a shared
// host, interference from other tenants only ever slows work down, and it
// comes in stretches of seconds that a median of one run's iterations
// follows; a segment needs just one undisturbed pass to be counted at its
// own cost (NOTES.md, "Steadiness"). If the iterations do not split into
// the same number of segments, it is the fastest whole iteration.
func quietWall(samples []sample) time.Duration {
	best := append([]time.Duration(nil), samples[0].segs...)
	fastest := samples[0].wall
	aligned := len(best) > 0
	for _, s := range samples[1:] {
		fastest = min(fastest, s.wall)
		if len(s.segs) != len(best) {
			aligned = false
			continue
		}
		for k, d := range s.segs {
			best[k] = min(best[k], d)
		}
	}
	if !aligned {
		return fastest
	}
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return sum
}

// checks counts oracle checks. A failed check is a failed operation of the
// run, and its name goes to standard error.
type checks struct {
	attempted, failed int
}

func (c *checks) expect(name string, ok bool) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "dagbench: check failed: %s\n", name)
	}
}

//go:embed golden.json
var goldenJSON []byte

// goldenSet is one workload's recorded outputs: Fixed for outputs that do
// not depend on the seed, Seeded keyed by input set for those that do.
type goldenSet struct {
	Fixed  map[string]string            `json:"fixed"`
	Seeded map[string]map[string]string `json:"seeded,omitempty"`
}

// compare checks every output of s against the recorded one; an output
// with no recorded value fails.
func (g goldenSet) compare(c *checks, workload string, input int, s sample) {
	for _, name := range sortedKeys(s.fixed) {
		want, ok := g.Fixed[name]
		c.expect(workload+"/"+name, ok && want == s.fixed[name])
	}
	for _, name := range sortedKeys(s.seeded) {
		want, ok := g.Seeded[strconv.Itoa(input)][name]
		c.expect(fmt.Sprintf("%s/%s[input %d]", workload, name, input), ok && want == s.seeded[name])
	}
}

func main() {
	name := flag.String("workload", "", "workload: fig10-lbm, fig9-compute, fleet-ni or security")
	seed := flag.Int64("seed", 0, "workload seed; selects input set seed mod 16 of the seeded workloads")
	seconds := flag.Float64("seconds", 10, "how long to keep starting iterations")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	scratch := flag.String("scratch", ".bench_build", "directory that receives the run's files")
	record := flag.Bool("record-golden", false, "print the outputs of every workload and input set in golden.json form")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fatalf("%v", err)
	}
	code := run(dir, *name, *seed, *seconds, *trace, *record)
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "dagbench:", err)
	}
	os.Exit(code)
}

func run(dir, name string, seed int64, seconds float64, trace int, record bool) int {
	if record {
		blob, err := recordGolden(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dagbench:", err)
			return 1
		}
		os.Stdout.Write(blob)
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "dagbench: unknown workload %q\n", name)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "dagbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	var goldens map[string]goldenSet
	if err := json.Unmarshal(goldenJSON, &goldens); err != nil {
		fmt.Fprintln(os.Stderr, "dagbench: golden.json:", err)
		return 1
	}
	input := int((seed%inputSets + inputSets) % inputSets)
	fmt.Fprintf(os.Stderr, "dagbench: workload=%s seed=%d input=%d trace=%d gomaxprocs=%d nproc=%d\n",
		name, seed, input, trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	e := &env{input: input, scratch: dir, checks: &checks{}}
	res, err := measure(*w, e, seconds, trace == 1, goldens[w.name])
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagbench:", err)
		return 1
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	return 0
}

// measure runs iterations until both the time and the minimum counts are
// reached, checks each against the oracle, and folds them into a result.
func measure(w workload, e *env, seconds float64, traced bool, g goldenSet) (result, error) {
	start := time.Now()
	var plain, inst []sample
	for i := 0; ; i++ {
		e.iter = i
		tracedIter := traced && i%2 == 1
		// Start every iteration from a collected heap with its free pages
		// returned to the kernel, so none pays for the garbage of the one
		// before and its peak RSS does not depend on how much memory the
		// runtime happened to keep.
		debug.FreeOSMemory()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := resetPeakRSS(); err != nil && i == 0 {
			fmt.Fprintln(os.Stderr, "dagbench: peak RSS covers the whole process:", err)
		}
		s, err := w.run(e, tracedIter)
		if err != nil {
			return result{}, fmt.Errorf("%s iteration %d: %w", w.name, i, err)
		}
		s.rss = peakRSSMB()
		runtime.ReadMemStats(&after)
		if s.layers == nil {
			s.layers = map[string]float64{}
		}
		s.layers["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		s.layers["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
		fmt.Fprintf(os.Stderr, "dagbench: iteration %d traced=%v setup=%.6fs wall=%.6fs rss=%.1fMB\n",
			i, tracedIter, s.setup.Seconds(), s.wall.Seconds(), s.rss)
		g.compare(e.checks, w.name, e.input, s)
		if tracedIter {
			inst = append(inst, s)
		} else {
			plain = append(plain, s)
		}
		done := len(plain) >= minPlain
		if traced {
			done = len(plain) >= minTraced && len(inst) >= minTraced
		}
		if done && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "dagbench: %d untraced and %d traced iterations in %.1fs\n",
		len(plain), len(inst), time.Since(start).Seconds())

	c := e.checks
	res := result{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		// Set-up is the median over iterations; the timed phase is the
		// quiet-host estimate. Simulated cycles are the same in every
		// iteration.
		var setups, rss []float64
		for _, s := range plain {
			setups = append(setups, s.setup.Seconds())
			rss = append(rss, s.rss)
		}
		wall := quietWall(plain).Seconds()
		values := map[string]float64{
			"setup_s":           median(setups),
			"wall_s":            wall,
			"sim_mcycles_per_s": float64(plain[0].cycles) / wall / 1e6,
			"peak_rss_mb":       median(rss),
			"ok_ratio":          float64(c.attempted-c.failed) / float64(c.attempted),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		}
		return res, nil
	}

	for _, s := range append(append([]sample(nil), plain...), inst...) {
		for name := range s.layers {
			if _, ok := perLayerUnit()[name]; !ok {
				return result{}, fmt.Errorf("%s reported unknown layer metric %q", w.name, name)
			}
		}
	}
	layer := func(from []sample, name string) float64 {
		var vs []float64
		for _, s := range from {
			vs = append(vs, s.layers[name])
		}
		return median(vs)
	}
	fastest := func(from []sample) float64 {
		least := from[0].wall
		for _, s := range from {
			least = min(least, s.wall)
		}
		return least.Seconds()
	}
	for _, m := range perLayer {
		var v float64
		switch m.name {
		case "trace.overhead_ratio":
			v = fastest(inst) / fastest(plain)
		case "go.alloc_mb", "go.gc_cycles":
			// Allocation is a property of the workload, so it comes from
			// the untraced iterations.
			v = layer(plain, m.name)
		default:
			v = layer(inst, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// recordGolden runs one iteration of every workload on every input set and
// renders the outputs as golden.json. Fixed outputs must agree across input
// sets.
func recordGolden(dir string) ([]byte, error) {
	out := map[string]goldenSet{}
	for _, w := range workloads {
		g := goldenSet{}
		n := 1
		if w.seeded {
			n = inputSets
			g.Seeded = map[string]map[string]string{}
		}
		for input := 0; input < n; input++ {
			fmt.Fprintf(os.Stderr, "dagbench: recording %s input %d\n", w.name, input)
			s, err := w.run(&env{input: input, scratch: dir, checks: &checks{}}, false)
			if err != nil {
				return nil, fmt.Errorf("%s input %d: %w", w.name, input, err)
			}
			if g.Fixed == nil {
				g.Fixed = s.fixed
			}
			for k, v := range s.fixed {
				if g.Fixed[k] != v {
					return nil, fmt.Errorf("%s: fixed output %s differs on input %d", w.name, k, input)
				}
			}
			if w.seeded {
				g.Seeded[strconv.Itoa(input)] = s.seeded
			}
		}
		out[w.name] = g
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// resetPeakRSS restarts the kernel's record of this process's peak
// resident set size (VmHWM), so that peakRSSMB reports the peak since the
// reset. Where that fails, peakRSSMB reports the peak since the process
// started.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MiB: VmHWM, or the
// rusage maximum where /proc is not available.
func peakRSSMB() float64 {
	if blob, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dagbench: "+format+"\n", args...)
	os.Exit(1)
}
