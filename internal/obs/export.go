package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// WriteChromeTrace writes events as Chrome trace-event JSON (the format
// Perfetto and chrome://tracing open directly). Each component becomes a
// process, each lane Index a thread, so DRAM banks, shapers and cores
// render as parallel swimlanes; one simulated cycle maps to one trace
// microsecond. Output is byte-deterministic for a given event slice:
// metadata is sorted and events are written in slice order.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}

	// Lane metadata: name every (component, index) pair that occurs.
	type lane struct {
		pid, tid int32
	}
	seen := make(map[lane]bool)
	comps := make(map[int32]Component)
	for _, ev := range events {
		pid := int32(ev.Comp) + 1
		seen[lane{pid, ev.Index}] = true
		comps[pid] = ev.Comp
	}
	lanes := make([]lane, 0, len(seen))
	for l := range seen {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].pid != lanes[j].pid {
			return lanes[i].pid < lanes[j].pid
		}
		return lanes[i].tid < lanes[j].tid
	})

	first := true
	emit := func(line string) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := bw.WriteString(line)
		return err
	}

	lastPid := int32(-1)
	for _, l := range lanes {
		if l.pid != lastPid {
			lastPid = l.pid
			line := fmt.Sprintf(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":%q}}`,
				l.pid, comps[l.pid].String())
			if err := emit(line); err != nil {
				return err
			}
		}
		line := fmt.Sprintf(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%q}}`,
			l.pid, l.tid, laneName(comps[l.pid], l.tid))
		if err := emit(line); err != nil {
			return err
		}
	}

	for _, ev := range events {
		pid := int32(ev.Comp) + 1
		var line string
		if ev.Dur > 0 {
			line = fmt.Sprintf(`{"ph":"X","name":%q,"cat":%q,"ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"domain":%d}}`,
				ev.Kind.String(), ev.Comp.String(), ev.Cycle, ev.Dur, pid, ev.Index, ev.Domain)
		} else {
			line = fmt.Sprintf(`{"ph":"i","s":"t","name":%q,"cat":%q,"ts":%d,"pid":%d,"tid":%d,"args":{"domain":%d}}`,
				ev.Kind.String(), ev.Comp.String(), ev.Cycle, pid, ev.Index, ev.Domain)
		}
		if err := emit(line); err != nil {
			return err
		}
	}

	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// laneName labels one thread lane inside a component's process group.
func laneName(c Component, tid int32) string {
	switch c {
	case CompBank:
		return fmt.Sprintf("bank %d", tid)
	case CompChannel:
		return fmt.Sprintf("channel %d", tid)
	case CompRank:
		return fmt.Sprintf("rank %d", tid)
	case CompShaper:
		return fmt.Sprintf("shaper dom %d", tid)
	case CompCore:
		return fmt.Sprintf("core dom %d", tid)
	default:
		return fmt.Sprintf("lane %d", tid)
	}
}

// WriteChromeTraceFile exports the tracer's retained events to path.
func WriteChromeTraceFile(path string, t *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, t.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FormatSummary renders a snapshot as the text metrics table printed by
// the CLIs' -metrics flag: per-domain DRAM/controller/shaper/core
// counters with derived rates, followed by the occupancy and latency
// histograms. cycles is the measurement window length (0 suppresses the
// utilization rates).
func FormatSummary(s *Snapshot, cycles uint64) string {
	if s == nil {
		return "observability disabled\n"
	}
	var b strings.Builder

	b.WriteString("== per-domain metrics ==\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %8s %10s %10s %10s %10s %10s %10s\n",
		"domain", "row-hits", "misses", "conflicts", "hit-rate",
		"reads", "writes", "fakes", "fwd", "bus-cyc", "bus-util")
	for d := 0; d < s.Domains; d++ {
		hits := s.Counter(CtrRowHits, d)
		misses := s.Counter(CtrRowMisses, d)
		conflicts := s.Counter(CtrRowConflicts, d)
		total := hits + misses + conflicts
		if total == 0 && s.Counter(CtrShaperForwarded, d) == 0 && s.Counter(CtrRetired, d) == 0 {
			continue
		}
		hitRate := 0.0
		if total > 0 {
			hitRate = float64(hits) / float64(total)
		}
		busCyc := s.Counter(CtrBusBusyCycles, d)
		util := "-"
		if cycles > 0 {
			util = fmt.Sprintf("%9.1f%%", 100*float64(busCyc)/float64(cycles))
		}
		fmt.Fprintf(&b, "%-8d %10d %10d %10d %7.1f%% %10d %10d %10d %10d %10d %10s\n",
			d, hits, misses, conflicts, 100*hitRate,
			s.Counter(CtrIssuedReads, d), s.Counter(CtrIssuedWrites, d),
			s.Counter(CtrIssuedFakes, d), s.Counter(CtrShaperForwarded, d),
			busCyc, util)
	}

	b.WriteString("\n== system ==\n")
	fmt.Fprintf(&b, "sched picks %d (reorders %d)  slots seen/used/wasted %d/%d/%d  refreshes %d (stall cycles %d)  precharges %d\n",
		s.Counter(CtrSchedPicks, 0), s.Counter(CtrSchedReorders, 0),
		s.Counter(CtrSlotsSeen, 0), s.Counter(CtrSlotsUsed, 0), s.Counter(CtrSlotsWasted, 0),
		s.Counter(CtrRefreshes, 0), s.Counter(CtrRefreshStallCycles, 0),
		s.CounterTotal(CtrPrecharges))
	if cycles > 0 {
		fmt.Fprintf(&b, "total bus utilization %.1f%% over %d cycles\n",
			100*float64(s.CounterTotal(CtrBusBusyCycles))/float64(cycles), cycles)
	}

	b.WriteString("\n== histograms (log2 buckets: bucket k covers [2^(k-1), 2^k)) ==\n")
	for _, h := range []Hist{HistReqLatency, HistQueueWait, HistQueueDepth, HistShaperQueue, HistEgressQueue, HistNodeWait, HistMLP} {
		for d := 0; d < s.Domains; d++ {
			if s.HistTotal(h, d) == 0 {
				continue
			}
			b.WriteString(formatHistRow(s, h, d))
		}
	}
	return b.String()
}

// formatHistRow renders one histogram as a single line with quantiles and
// the populated buckets.
func formatHistRow(s *Snapshot, h Hist, d int) string {
	var b strings.Builder
	p50, _ := s.HistQuantile(h, d, 0.50)
	p90, _ := s.HistQuantile(h, d, 0.90)
	p99, _ := s.HistQuantile(h, d, 0.99)
	fmt.Fprintf(&b, "%-24s dom %-3d n=%-10d p50>=%-8d p90>=%-8d p99>=%-8d ",
		h.String(), d, s.HistTotal(h, d), p50, p90, p99)
	buckets := s.HistBuckets(h, d)
	parts := make([]string, 0, 8)
	for k, n := range buckets {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("[%d:%d]", BucketLow(k), n))
		}
	}
	b.WriteString(strings.Join(parts, " "))
	b.WriteString("\n")
	return b.String()
}
