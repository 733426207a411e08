package rdag

import (
	"math/rand"
	"testing"

	"dagguise/internal/mem"
)

func TestPatternDriverChainTiming(t *testing.T) {
	// One sequence, weight 150 (the Figure 5 defense rDAG): requests must
	// be spaced exactly 150 cycles after the previous completion.
	d := MustPatternDriver(Template{Sequences: 1, Weight: 150, Banks: 8})

	slots := d.Poll(0)
	if len(slots) != 1 {
		t.Fatalf("expected one slot at cycle 0, got %d", len(slots))
	}
	if d.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", d.Outstanding())
	}
	// Nothing more until the response comes back.
	if got := d.Poll(1000); len(got) != 0 {
		t.Fatalf("driver emitted %d slots while waiting", len(got))
	}
	// Response at cycle 100: next request due at 250.
	d.Complete(slots[0].Token, 100)
	if got := d.Poll(249); len(got) != 0 {
		t.Fatal("slot emitted before its 150-cycle dependency elapsed")
	}
	got := d.Poll(250)
	if len(got) != 1 {
		t.Fatalf("expected slot at cycle 250, got %d", len(got))
	}
}

func TestPatternDriverBankAlternation(t *testing.T) {
	d := MustPatternDriver(Template{Sequences: 1, Weight: 0, Banks: 8})
	var banks []int
	now := uint64(0)
	for i := 0; i < 6; i++ {
		slots := d.Poll(now)
		if len(slots) != 1 {
			t.Fatalf("step %d: %d slots", i, len(slots))
		}
		banks = append(banks, slots[0].Bank)
		now += 10
		d.Complete(slots[0].Token, now)
	}
	// A single sequence cycles through every bank in turn.
	want := []int{0, 1, 2, 3, 4, 5}
	for i := range want {
		if banks[i] != want[i] {
			t.Fatalf("bank sequence %v, want %v", banks, want)
		}
	}
}

func TestPatternDriverParallelSequences(t *testing.T) {
	d := MustPatternDriver(Template{Sequences: 4, Weight: 100, Banks: 8})
	slots := d.Poll(0)
	if len(slots) != 4 {
		t.Fatalf("expected 4 parallel slots, got %d", len(slots))
	}
	banks := map[int]bool{}
	for _, s := range slots {
		banks[s.Bank] = true
	}
	if len(banks) != 4 {
		t.Fatalf("parallel slots share banks: %v", slots)
	}
	// Completing one sequence only re-arms that sequence. The next Poll
	// reuses the slice, so the token is read out first.
	first := slots[0].Token
	d.Complete(first, 50)
	next := d.Poll(150)
	if len(next) != 1 || next[0].Token != first {
		t.Fatalf("expected only sequence %d to re-arm, got %v", first, next)
	}
}

func TestPatternDriverWriteRatio(t *testing.T) {
	d := MustPatternDriver(Template{Sequences: 1, Weight: 0, Banks: 8, WriteRatio: 0.5})
	var kinds []mem.Kind
	now := uint64(0)
	for i := 0; i < 6; i++ {
		s := d.Poll(now)[0]
		kinds = append(kinds, s.Kind)
		now += 10
		d.Complete(s.Token, now)
	}
	writes := 0
	for _, k := range kinds {
		if k == mem.Write {
			writes++
		}
	}
	if writes != 3 {
		t.Fatalf("writes = %d of 6 at ratio 0.5, kinds=%v", writes, kinds)
	}
}

func TestPatternDriverCompletePanicsWhenIdle(t *testing.T) {
	d := MustPatternDriver(Template{Sequences: 1, Weight: 10, Banks: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on spurious completion")
		}
	}()
	d.Complete(0, 5)
}

func TestPatternDriverReset(t *testing.T) {
	d := MustPatternDriver(Template{Sequences: 2, Weight: 50, Banks: 8})
	first := d.Poll(0)
	d.Complete(first[0].Token, 10)
	d.Reset()
	if d.Outstanding() != 0 {
		t.Fatalf("outstanding after reset = %d", d.Outstanding())
	}
	again := d.Poll(0)
	if len(again) != 2 {
		t.Fatalf("expected full re-emission after reset, got %d", len(again))
	}
	if d.Emitted() != 2 {
		t.Fatalf("emitted counter = %d, want 2", d.Emitted())
	}
}

func TestGraphDriverDiamondDependency(t *testing.T) {
	// Diamond: r -> a, r -> b, {a,b} -> s. s must wait for both.
	g := &Graph{}
	r := g.AddVertex(0, mem.Read)
	a := g.AddVertex(1, mem.Read)
	b := g.AddVertex(2, mem.Read)
	s := g.AddVertex(3, mem.Read)
	g.AddEdge(r, a, 10)
	g.AddEdge(r, b, 20)
	g.AddEdge(a, s, 30)
	g.AddEdge(b, s, 5)
	d, err := NewGraphDriver(g, 100)
	if err != nil {
		t.Fatal(err)
	}

	slots := d.Poll(0)
	if len(slots) != 1 || slots[0].Token != int(r) {
		t.Fatalf("expected root first, got %v", slots)
	}
	d.Complete(int(r), 50) // a ready at 60, b at 70
	if got := d.Poll(59); len(got) != 0 {
		t.Fatalf("premature emission: %v", got)
	}
	got := d.Poll(60)
	if len(got) != 1 || got[0].Token != int(a) {
		t.Fatalf("expected a at 60, got %v", got)
	}
	got = d.Poll(70)
	if len(got) != 1 || got[0].Token != int(b) {
		t.Fatalf("expected b at 70, got %v", got)
	}
	// s waits for max(a completion + 30, b completion + 5).
	d.Complete(int(a), 100) // s ready at 130 via a
	d.Complete(int(b), 140) // s ready at 145 via b
	if got := d.Poll(144); len(got) != 0 {
		t.Fatal("sink emitted before all dependencies")
	}
	got = d.Poll(145)
	if len(got) != 1 || got[0].Token != int(s) {
		t.Fatalf("expected sink at 145, got %v", got)
	}
}

func TestGraphDriverRestarts(t *testing.T) {
	g := &Graph{}
	v := g.AddVertex(0, mem.Read)
	d, err := NewGraphDriver(g, 25)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Poll(0)
	if len(s) != 1 {
		t.Fatal("no initial emission")
	}
	d.Complete(int(v), 10)
	// Restart: root ready at 10+25 = 35.
	if got := d.Poll(34); len(got) != 0 {
		t.Fatal("restarted too early")
	}
	if got := d.Poll(35); len(got) != 1 {
		t.Fatal("restart missed")
	}
}

func TestGraphDriverRejectsEmptyGraph(t *testing.T) {
	if _, err := NewGraphDriver(&Graph{}, 10); err == nil {
		t.Fatal("expected error for empty graph")
	}
}

func TestDriversAreDeterministic(t *testing.T) {
	// Two identical drivers fed identical completion times emit identical
	// slot schedules — the heart of the security argument.
	run := func() []Slot {
		d := MustPatternDriver(Template{Sequences: 2, Weight: 75, Banks: 8, WriteRatio: 0.25})
		var log []Slot
		now := uint64(0)
		for step := 0; step < 50; step++ {
			slots := d.Poll(now)
			log = append(log, slots...)
			for _, s := range slots {
				d.Complete(s.Token, now+uint64(20+s.Bank))
			}
			now += 30
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestNextPollPredictsPoll drives both drivers through a schedule of
// random response latencies and checks, at every cycle, that Poll returns
// a slot exactly when NextPoll has come.
func TestNextPollPredictsPoll(t *testing.T) {
	tpl := Template{Sequences: 3, Weight: 40, WriteRatio: 0.25, Banks: 8}
	g, err := tpl.Unroll(2)
	if err != nil {
		t.Fatal(err)
	}
	drivers := map[string]Driver{"pattern": MustPatternDriver(tpl)}
	if drivers["graph"], err = NewGraphDriver(g, 25); err != nil {
		t.Fatal(err)
	}
	for name, d := range drivers {
		rnd := rand.New(rand.NewSource(3))
		due := map[int]uint64{} // token -> completion cycle
		for now := uint64(0); now < 5_000; now++ {
			for tok := range g.Vertices {
				if at, ok := due[tok]; ok && at == now {
					d.Complete(tok, now)
					delete(due, tok)
				}
			}
			next := d.NextPoll()
			slots := d.Poll(now)
			if (len(slots) > 0) != (next <= now) {
				t.Fatalf("%s: cycle %d: NextPoll %d but Poll returned %d slots", name, now, next, len(slots))
			}
			for _, s := range slots {
				due[s.Token] = now + 1 + uint64(rnd.Intn(90))
			}
		}
	}
}

// TestPatternDriverPollAllocatesNothing pins Poll allocation-free once
// warmed: the due slots come back in the driver's reused slice.
func TestPatternDriverPollAllocatesNothing(t *testing.T) {
	d := MustPatternDriver(Template{Sequences: 4, Weight: 30, WriteRatio: 0.25, Banks: 8, RowHitRatio: 0.5})
	now := uint64(0)
	poll := func() {
		for due := 0; due == 0; now++ {
			slots := d.Poll(now)
			for _, s := range slots {
				d.Complete(s.Token, now)
			}
			due = len(slots)
		}
	}
	for i := 0; i < 16; i++ {
		poll()
	}
	if allocs := testing.AllocsPerRun(200, poll); allocs != 0 {
		t.Fatalf("a poll with slots due allocates %v times", allocs)
	}
}
