package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// spin burns CPU for roughly d without sleeping, so lap attribution has
// real work to measure.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// TestCycleProfileTelescopes pins the core invariant of the lap design:
// every nanosecond between the first and last lap lands in exactly one
// bucket, so the attributed total explains (almost all of) wall time. The
// test drives the profile's clock, so preemption of the test process
// cannot make a 50 µs section outweigh a 100 µs one.
func TestCycleProfileTelescopes(t *testing.T) {
	var clock int64
	work := func(d time.Duration) { clock += int64(d) }
	p := NewCycleProfile()
	p.clock = func() int64 { return clock }
	for i := 0; i < 50; i++ {
		work(100 * time.Microsecond)
		p.Lap(PBCPU)
		work(50 * time.Microsecond)
		p.Lap(PBDRAM)
		p.Lap(PBHarness)
	}
	wall := time.Duration(clock)

	r := p.Report(wall, 50)
	if r.Coverage < 0.95 {
		t.Fatalf("coverage %.3f < 0.95 (attributed %d ns of %d ns)", r.Coverage, r.TotalNs, r.WallNs)
	}
	if r.Coverage > 1.05 {
		t.Fatalf("coverage %.3f > 1.05: attribution exceeds wall time", r.Coverage)
	}
	if p.Ns(PBCPU) <= p.Ns(PBDRAM) {
		t.Fatalf("cpu bucket (%d ns) should dominate dram (%d ns)", p.Ns(PBCPU), p.Ns(PBDRAM))
	}
	if p.Laps(PBCPU) != 50 || p.Laps(PBDRAM) != 50 {
		t.Fatalf("lap counts wrong: cpu=%d dram=%d", p.Laps(PBCPU), p.Laps(PBDRAM))
	}
	// The report is sorted by descending ns and shares sum to ~1.
	var shares float64
	for i, row := range r.Buckets {
		shares += row.Share
		if i > 0 && row.Ns > r.Buckets[i-1].Ns {
			t.Fatalf("report not sorted by ns: %+v", r.Buckets)
		}
	}
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("shares sum to %.4f, want 1", shares)
	}
}

func TestCycleProfileNilAndReset(t *testing.T) {
	var p *CycleProfile
	p.Lap(PBCPU) // must not panic
	if p.Ns(PBCPU) != 0 || p.Laps(PBCPU) != 0 {
		t.Fatal("nil profile reported nonzero")
	}
	if p.Report(time.Second, 1) != nil {
		t.Fatal("nil profile produced a report")
	}
	p.Reset()

	live := NewCycleProfile()
	live.Lap(PBSched)
	live.Reset()
	if live.Ns(PBSched) != 0 || live.Laps(PBSched) != 0 {
		t.Fatal("reset did not clear buckets")
	}
}

func TestProfReportRendering(t *testing.T) {
	p := NewCycleProfile()
	spin(time.Millisecond)
	p.Lap(PBMemctrl)
	r := p.Report(2*time.Millisecond, 10)

	text := r.String()
	for _, want := range []string{"cycle attribution", "memctrl", "coverage", "ns/tick"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ProfReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.TotalNs != r.TotalNs || back.Ticks != 10 {
		t.Fatalf("round-tripped report diverges: %+v vs %+v", back, r)
	}

	var nilr *ProfReport
	if got := nilr.String(); !strings.Contains(got, "disabled") {
		t.Errorf("nil report String = %q", got)
	}
	if err := nilr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}
