package main

import (
	"strings"
	"testing"

	"dagguise/internal/telem"
)

// buildFrame writes a synthetic campaign into a telemetry directory with
// injected clocks and renders one frame at a fixed wall time.
func buildFrame(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()

	clock := func(base, step int64) func() int64 {
		v := base - step
		return func() int64 {
			v += step
			return v
		}
	}
	open := func(worker string, c func() int64) *telem.Emitter {
		e, err := telem.OpenEmitter(dir, worker, "0123456789abcdeffull")
		if err != nil {
			t.Fatal(err)
		}
		e.SetClock(c)
		return e
	}

	// Campaign stream: 6 shards over 2 workers.
	fleet := open("fleet", clock(1000, 1))
	fleet.Campaign(6, 2, 1000)
	fleet.Close()

	// Worker 0: one shard done in 1s, one running at half progress,
	// heartbeating recently.
	w0 := open("0", clock(1000, 1000))
	w0.Shard("s0", telem.EventClaim, "", 1000) // wall 1000
	w0.Shard("s0", telem.EventDone, "", 1000)  // wall 2000
	w0.Point("leak/insecure/s0", 1000, 1)
	w0.Shard("s1", telem.EventClaim, "", 1000) // wall 3000
	w0.SpanBegin("s1", "chunk", 0)
	w0.SpanEnd("s1", "chunk", 0, 500)
	w0.Heartbeat("s1", 500) // wall 4000: progress 5/10
	w0.Close()

	// Worker 1: one failed shard, one claimed with unknown progress,
	// silent since wall 7000 -> stale at nowMs 60000.
	w1 := open("1", clock(5000, 1000))
	w1.Shard("s2", telem.EventClaim, "", 1000)   // wall 5000
	w1.Shard("s2", telem.EventFailed, "boom", 0) // wall 6000
	w1.Shard("s3", telem.EventClaim, "", 0)      // wall 7000
	w1.Point("leak/dagguise/s2", 1000, 0)
	w1.Close()

	c, err := telem.Collect(dir)
	if err != nil {
		t.Fatal(err)
	}
	return render(c, 60_000)
}

func TestRenderFrame(t *testing.T) {
	frame := buildFrame(t)

	for _, want := range []string{
		// Header: truncated fingerprint, worker count excludes nothing
		// (fleet+auditd streams still count as streams), shard tallies.
		"dagtop · sweep 0123456789ab · 3 workers",
		"pending 2", "running 2", "done 1", "failed 1",
		"eta ",
		// Heatmap rows: worker 0 shows done '#' then running-at-half '5';
		// worker 1 shows failed 'X' then unknown-progress '?'.
		"\n  0        #5",
		"\n  1        X?",
		"(unclaimed)",
		// Worker 1 went silent 53s ago while holding s3.
		"(last heartbeat 53s ago)",
		// Deterministic fleet rule fires on the insecure leak rollup.
		"fleet-leak-budget-burn", "leak_rate/insecure", "critical",
		// Ops rules at nowMs 60000: both running shards are stragglers
		// (elapsed 57s/53s vs 1s median) and worker 1 stalled.
		"straggler", "straggler/s1",
		"worker-stall", "worker_stall/1",
		"\nstragglers (elapsed vs median done shard)\n",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}

	// s1 claimed at wall 3000 -> elapsed 57s, s3 at 7000 -> 53s: s1 ranks
	// first.
	iS1 := strings.Index(frame, "s1                           worker 0")
	iS3 := strings.Index(frame, "s3                           worker 1")
	if iS1 < 0 || iS3 < 0 || iS1 > iS3 {
		t.Fatalf("straggler ranking order wrong (s1@%d, s3@%d):\n%s", iS1, iS3, frame)
	}

	// The clean scheme must not fire.
	if strings.Contains(frame, "leak_rate/dagguise") {
		t.Fatalf("clean scheme alerted:\n%s", frame)
	}

	// Rendering is a pure function: same collection, same bytes.
	if again := buildFrame(t); frame != again {
		t.Fatalf("render is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", frame, again)
	}
}

func TestCell(t *testing.T) {
	cases := []struct {
		st   telem.ShardStatus
		want byte
	}{
		{telem.ShardStatus{State: "done"}, '#'},
		{telem.ShardStatus{State: "failed"}, 'X'},
		{telem.ShardStatus{State: "claim"}, '?'},
		{telem.ShardStatus{State: "claim", Target: 1000, Cycle: 0}, '0'},
		{telem.ShardStatus{State: "claim", Target: 1000, Cycle: 990}, '9'},
		{telem.ShardStatus{State: "claim", Target: 1000, Cycle: 2000}, '9'},
		{telem.ShardStatus{State: ""}, '.'},
	}
	for _, tc := range cases {
		if got := cell(tc.st); got != tc.want {
			t.Errorf("cell(%+v) = %c, want %c", tc.st, got, tc.want)
		}
	}
}
