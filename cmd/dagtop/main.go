// Command dagtop is the alert console and live view over a telemetry
// directory (internal/telem), written by a dagchaos/dagsim fleet run,
// by dagauditd -telem-dir, or by both: it re-collects the streams on
// every refresh and draws a per-worker shard heatmap,
// pending/running/done/failed counts, an ETA from shard-duration
// history, the firing alerts and the straggler ranking. Alerts come
// from the stock catalog (obs.DefaultRules) evaluated twice: over the
// merged deterministic series (the fleet leak rollup and a mirrored
// daemon's leak_burn, queue_sat and retry_rate series) and over the
// ops-plane straggler, worker-stall and requeue-rate series at the
// current wall time.
//
// Usage:
//
//	dagtop -dir fleettelem               # live view, refresh every 2s
//	dagtop -dir fleettelem -refresh 500ms
//	dagtop -dir fleettelem -once         # one frame, no ANSI clear (CI logs)
//
// The heatmap shows one row per worker; each cell is one shard that
// worker last touched: a digit 0-9 is a running shard's progress in
// tenths, '#' done, 'X' failed, '?' claimed with unknown progress.
// Shards no worker has claimed yet are counted on the "(unclaimed)"
// row.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"dagguise/internal/telem"
)

func main() {
	dir := flag.String("dir", "", "telemetry directory (the -telem-dir of a dagchaos/dagsim fleet run or of dagauditd)")
	refresh := flag.Duration("refresh", 2*time.Second, "redraw interval")
	once := flag.Bool("once", false, "render one frame and exit (no ANSI clear)")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "dagtop: -dir is required")
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	for {
		frame, err := snapshot(*dir, time.Now().UnixMilli())
		switch {
		case err == nil:
			if !*once {
				fmt.Print("\x1b[2J\x1b[H") // clear + home
			}
			fmt.Print(frame)
		case errors.Is(err, fs.ErrNotExist) || errors.Is(err, telem.ErrNoStreams):
			fmt.Fprintf(os.Stderr, "dagtop: waiting for streams in %s (%v)\n", *dir, err)
		default:
			fmt.Fprintln(os.Stderr, "dagtop:", err)
			os.Exit(1)
		}
		if *once {
			return
		}
		select {
		case <-sig:
			return
		case <-time.After(*refresh):
		}
	}
}

// snapshot collects the directory and renders one frame.
func snapshot(dir string, nowMs int64) (string, error) {
	c, err := telem.Collect(dir)
	if err != nil {
		return "", err
	}
	return render(c, nowMs), nil
}

// render draws one console frame from a collection. Pure (the wall
// clock is a parameter), so the layout is golden-testable.
func render(c *telem.Collection, nowMs int64) string {
	var b strings.Builder
	pending, running, done, failed := c.Counts()

	fp := c.Fingerprint
	if len(fp) > 12 {
		fp = fp[:12]
	}
	fmt.Fprintf(&b, "dagtop · sweep %s · %d workers\n", fp, len(c.Workers))
	fmt.Fprintf(&b, "shards  pending %-4d running %-4d done %-4d failed %-4d", pending, running, done, failed)
	if ms, ok := c.ETA(); ok {
		fmt.Fprintf(&b, "  eta %s", (time.Duration(ms) * time.Millisecond).Round(time.Second))
	}
	b.WriteString("\n\n")

	// Per-worker heatmap.
	byWorker := make(map[string][]telem.ShardStatus)
	unclaimed := 0
	for _, st := range c.Shards {
		if st.Worker == "" {
			unclaimed++
			continue
		}
		byWorker[st.Worker] = append(byWorker[st.Worker], st)
	}
	unclaimed += pending - countPendingKnown(c)
	b.WriteString("workers\n")
	for _, w := range c.Workers {
		if w.Name == "fleet" || w.Name == "auditd" || strings.HasPrefix(w.Name, "fleet-") {
			continue // campaign-level streams have no shard lane
		}
		cells := byWorker[w.Name]
		sort.Slice(cells, func(i, j int) bool { return cells[i].Name < cells[j].Name })
		var row strings.Builder
		for _, st := range cells {
			row.WriteByte(cell(st))
		}
		stale := ""
		if w.LastWall > 0 && nowMs > w.LastWall+10_000 && len(w.Running) > 0 {
			stale = fmt.Sprintf("  (last heartbeat %s ago)", (time.Duration(nowMs-w.LastWall) * time.Millisecond).Round(time.Second))
		}
		fmt.Fprintf(&b, "  %-8s %-32s %d shard(s)%s\n", w.Name, row.String(), len(cells), stale)
	}
	if unclaimed > 0 {
		fmt.Fprintf(&b, "  %-8s %-32s %d shard(s)\n", "(unclaimed)", strings.Repeat(".", min(unclaimed, 32)), unclaimed)
	}

	// Lease ownership: running shards with their owner identity and
	// fencing epoch, plus any shard with steal or zombie-fence history.
	// Only multi-process fleets (dagchaos -join) populate these.
	var leases []telem.ShardStatus
	for _, st := range c.Shards {
		if (st.Owner != "" && st.State == "claim") || st.Steals > 0 || st.Fenced > 0 {
			leases = append(leases, st)
		}
	}
	if len(leases) > 0 {
		sort.Slice(leases, func(i, j int) bool { return leases[i].Name < leases[j].Name })
		b.WriteString("\nleases\n")
		for _, st := range leases {
			owner := st.Owner
			if owner == "" {
				owner = "-"
			}
			notes := ""
			if st.Steals > 0 {
				notes += fmt.Sprintf("  stolen x%d", st.Steals)
			}
			if st.Fenced > 0 {
				notes += fmt.Sprintf("  zombie-fenced x%d", st.Fenced)
			}
			fmt.Fprintf(&b, "  %-28s %-16s epoch %-4d%s\n", st.Name, owner, st.Epoch, notes)
		}
	}

	// Alerts: the stock catalog over the merged deterministic series,
	// then over the ops-plane series at the current wall time.
	opsAlerts, stragglers := c.EvalOps(nowMs)
	if alerts := append(c.DetAlerts(), opsAlerts...); len(alerts) > 0 {
		b.WriteString("\nalerts\n")
		for _, a := range alerts {
			fmt.Fprintf(&b, "  %-8s %-22s %-28s %s (%.2f %s %.2f)\n", a.Severity, a.Rule, a.Series, a.State, a.Value, a.Op, a.Threshold)
		}
	}

	if len(stragglers) > 0 {
		b.WriteString("\nstragglers (elapsed vs median done shard)\n")
		for i, s := range stragglers {
			if i == 5 {
				break
			}
			ratio := "n/a"
			if s.Ratio > 0 {
				ratio = fmt.Sprintf("%.1fx", s.Ratio)
			}
			fmt.Fprintf(&b, "  %-28s worker %-8s %8s  %s\n", s.Shard, s.Worker,
				(time.Duration(s.ElapsedMs) * time.Millisecond).Round(time.Second), ratio)
		}
	}
	return b.String()
}

// cell maps one shard status to its heatmap glyph.
func cell(st telem.ShardStatus) byte {
	switch st.State {
	case "done":
		return '#'
	case "failed":
		return 'X'
	case "claim":
		if st.Target > 0 {
			tenth := st.Cycle * 10 / st.Target
			if tenth > 9 {
				tenth = 9
			}
			return byte('0' + tenth)
		}
		return '?'
	default:
		return '.'
	}
}

// countPendingKnown counts shards present in the collection that are
// still pending (never claimed), to split known from never-seen pending
// in the heatmap.
func countPendingKnown(c *telem.Collection) int {
	n := 0
	for _, st := range c.Shards {
		if st.State != "done" && st.State != "failed" && st.State != "claim" {
			n++
		}
	}
	return n
}
