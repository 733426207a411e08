package fault

import (
	"math"
	"reflect"
	"testing"

	"dagguise/internal/mem"
)

func TestCampaignDeterministic(t *testing.T) {
	cfg := CampaignConfig{Horizon: 100_000, Domains: []mem.Domain{1, 3}}
	a := Campaign(42, cfg)
	b := Campaign(42, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := Campaign(43, cfg)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("campaign schedule invalid: %v", err)
	}
}

func TestEventWindowQueries(t *testing.T) {
	in := MustInjector(Schedule{Events: []Event{
		{Kind: EgressStall, Domain: 2, Start: 100, Duration: 50},
		{Kind: ShaperBackpressure, Domain: AllDomains, Start: 10, Duration: 5},
	}})
	if in.EgressStalled(2, 99) || in.EgressStalled(2, 150) {
		t.Fatal("window boundaries wrong: [100,150) expected")
	}
	if !in.EgressStalled(2, 100) || !in.EgressStalled(2, 149) {
		t.Fatal("window interior not active")
	}
	if in.EgressStalled(1, 120) {
		t.Fatal("domain-scoped fault leaked to another domain")
	}
	if !in.ShaperRejects(1, 12) || !in.ShaperRejects(7, 12) {
		t.Fatal("AllDomains fault must hit every domain")
	}
}

func TestDeferResponseDelayAndDrop(t *testing.T) {
	in := MustInjector(Schedule{Events: []Event{
		{Kind: RespDelay, Domain: 1, Start: 0, Duration: 100, Delay: 30},
		{Kind: RespDrop, Domain: 1, Start: 50, Duration: 10, Delay: 20},
	}})
	at, ok := in.DeferResponse(1, 10)
	if !ok || at != 40 {
		t.Fatalf("delay window: got (%d,%v), want (40,true)", at, ok)
	}
	// In the overlap the latest redelivery wins: the delay window yields
	// 55+30=85, the drop window 60+20=80.
	at, ok = in.DeferResponse(1, 55)
	if !ok || at != 85 {
		t.Fatalf("overlap: got (%d,%v), want (85,true)", at, ok)
	}
	if _, ok := in.DeferResponse(2, 55); ok {
		t.Fatal("other domain must be unaffected")
	}
	if _, ok := in.DeferResponse(1, 200); ok {
		t.Fatal("outside all windows must be unaffected")
	}
}

func TestDeferResponseAlwaysFuture(t *testing.T) {
	// A drop whose window end is in the past relative to a late query must
	// still redeliver strictly in the future.
	in := MustInjector(Schedule{Events: []Event{
		{Kind: RespDrop, Domain: AllDomains, Start: 0, Duration: Forever, Delay: 0},
	}})
	at, ok := in.DeferResponse(1, 123)
	if !ok || at <= 123 {
		t.Fatalf("redelivery must be strictly future, got (%d,%v)", at, ok)
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []Schedule{
		{Events: []Event{{Kind: Kind(99), Duration: 1}}},
		{Events: []Event{{Kind: DRAMStall, Duration: 0}}},
		{Events: []Event{{Kind: RespDelay, Duration: 5, Delay: 0}}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid schedule accepted", i)
		}
	}
	if _, err := NewInjector(cases[0]); err == nil {
		t.Error("NewInjector accepted invalid schedule")
	}
}

func TestEventEndSaturates(t *testing.T) {
	e := Event{Kind: DRAMStall, Start: Forever - 10, Duration: Forever}
	if e.End() != Forever {
		t.Fatalf("End() = %d, want saturation at Forever", e.End())
	}
	if e.active(1, Forever) {
		t.Fatal("cycle Forever must be outside every window")
	}
}

// TestNextEdge checks the window-edge lookup against a scan: the edge is
// the first cycle after now whose active-window set differs from now's.
func TestNextEdge(t *testing.T) {
	in := MustInjector(Schedule{Events: []Event{
		{Kind: EgressStall, Domain: 2, Start: 100, Duration: 50},
		{Kind: ShaperBackpressure, Domain: AllDomains, Start: 10, Duration: 5},
		{Kind: RespDrop, Domain: 1, Start: 100, Duration: Forever, Delay: 3},
	}})
	for _, c := range []struct{ now, want uint64 }{
		{0, 10}, {9, 10}, {10, 15}, {14, 15}, {15, 100}, {100, 150}, {149, 150}, {150, Forever}, {Forever, math.MaxUint64},
	} {
		if got := in.NextEdge(c.now); got != c.want {
			t.Errorf("NextEdge(%d) = %d, want %d", c.now, got, c.want)
		}
	}
	camp := MustInjector(Campaign(7, CampaignConfig{Horizon: 5_000, Domains: []mem.Domain{1, 3}}))
	active := func(now uint64) []bool {
		var out []bool
		for k := DRAMStall; k <= EgressStall; k++ {
			for _, e := range camp.byKind[k] {
				out = append(out, e.active(e.Domain, now))
			}
		}
		return out
	}
	for now := uint64(0); now < 6_000; {
		edge := camp.NextEdge(now)
		want := active(now)
		for c := now + 1; c < edge && c < 6_000; c++ {
			if !reflect.DeepEqual(active(c), want) {
				t.Fatalf("active windows change at %d, before NextEdge(%d) = %d", c, now, edge)
			}
		}
		if edge <= now || edge < 6_000 && reflect.DeepEqual(active(edge), want) {
			t.Fatalf("NextEdge(%d) = %d is no window edge", now, edge)
		}
		now = edge
	}
}
