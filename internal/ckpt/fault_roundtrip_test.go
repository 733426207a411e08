package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dagguise/internal/fault"
	"dagguise/internal/mem"
)

// fireLog renders every injector decision the schedule makes for the
// cycle range [from, to) — the "remaining fault sequence" a resumed
// simulation would experience. The injector is a pure function of its
// schedule, so two schedules with equal fire logs are operationally
// identical from the resume point onward.
func fireLog(t *testing.T, s fault.Schedule, doms []mem.Domain, from, to uint64) string {
	t.Helper()
	in, err := fault.NewInjector(s)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	out := ""
	for _, w := range in.StallWindows() {
		if w.End() > from {
			out += fmt.Sprintf("stall %s\n", w)
		}
	}
	for now := from; now < to; now++ {
		for _, d := range append([]mem.Domain{fault.AllDomains}, doms...) {
			if in.EgressStalled(d, now) {
				out += fmt.Sprintf("%d egress dom%d\n", now, d)
			}
			if in.ShaperRejects(d, now) {
				out += fmt.Sprintf("%d reject dom%d\n", now, d)
			}
			if until, ok := in.DeferResponse(d, now); ok {
				out += fmt.Sprintf("%d defer dom%d until %d\n", now, d, until)
			}
		}
	}
	return out
}

// TestFaultScheduleCheckpointRoundTrip persists one schedule of every
// fault kind — plus randomized campaign schedules — through the ckpt
// frame Save/Load path and asserts the restored schedule fires the
// identical remaining fault sequence from a mid-horizon resume point.
func TestFaultScheduleCheckpointRoundTrip(t *testing.T) {
	const horizon = 4_000
	doms := []mem.Domain{1, 2}
	scheds := map[string]fault.Schedule{
		"dram-stall": {Seed: 1, Events: []fault.Event{
			{Kind: fault.DRAMStall, Start: 100, Duration: 300},
			{Kind: fault.DRAMStall, Start: 2_500, Duration: 200},
		}},
		"resp-delay": {Seed: 2, Events: []fault.Event{
			{Kind: fault.RespDelay, Domain: 1, Start: 1_900, Duration: 400, Delay: 7},
		}},
		"resp-drop": {Seed: 3, Events: []fault.Event{
			{Kind: fault.RespDrop, Domain: fault.AllDomains, Start: 2_200, Duration: 150, Delay: 20},
		}},
		"shaper-backpressure": {Seed: 4, Events: []fault.Event{
			{Kind: fault.ShaperBackpressure, Domain: 2, Start: 1_000, Duration: 2_000},
		}},
		"egress-stall": {Seed: 5, Events: []fault.Event{
			{Kind: fault.EgressStall, Domain: 1, Start: 3_000, Duration: 500},
		}},
	}
	for i := int64(0); i < 4; i++ {
		scheds[fmt.Sprintf("campaign-%d", i)] = fault.Campaign(100+i, fault.CampaignConfig{
			Horizon: horizon, Domains: doms, Events: 16,
		})
	}

	for name, s := range scheds {
		t.Run(name, func(t *testing.T) {
			want := fireLog(t, s, doms, horizon/2, horizon)

			payload, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "sched.ckpt")
			if err := SaveFrame(path, payload); err != nil {
				t.Fatal(err)
			}
			restoredPayload, err := LoadFrame(path)
			if err != nil {
				t.Fatal(err)
			}
			var restored fault.Schedule
			if err := json.Unmarshal(restoredPayload, &restored); err != nil {
				t.Fatal(err)
			}
			if restored.Seed != s.Seed || len(restored.Events) != len(s.Events) {
				t.Fatalf("restored schedule shape differs: %d events seed %d, want %d events seed %d",
					len(restored.Events), restored.Seed, len(s.Events), s.Seed)
			}
			if got := fireLog(t, restored, doms, horizon/2, horizon); got != want {
				t.Fatalf("restored schedule fires a different remaining sequence:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestLoadFrameRejectsCorruption checks the generic frame loader surfaces
// the same typed errors as the simulator snapshot path.
func TestLoadFrameRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if err := SaveFrame(path, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	payload, err := LoadFrame(path)
	if err != nil || string(payload) != `{"a":1}` {
		t.Fatalf("round trip = (%q, %v)", payload, err)
	}
	framed := Frame([]byte("hello"))
	framed[len(framed)-1] ^= 0xff
	if _, err := Unframe(framed); err == nil {
		t.Fatal("corrupted checksum accepted")
	}
	if _, err := Unframe(framed[:10]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := LoadFrame(filepath.Join(t.TempDir(), "absent.ckpt")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestWriteFileAtomicReplaces pins the durable-write contract every
// checkpoint, manifest and report relies on: writing over an existing
// file replaces it whole, creates missing parent directories, and leaves
// no temporary file behind.
func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "snap.ckpt")
	for _, data := range []string{"first version", "second"} {
		if err := WriteFileAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read back (%q, %v), want %q", got, err, data)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "snap.ckpt" {
			t.Fatalf("leftover temp file %q after WriteFileAtomic", e.Name())
		}
	}
}
