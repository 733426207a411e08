package ckpt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/mem"
	"dagguise/internal/rdag"
	"dagguise/internal/sim"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
	"dagguise/internal/workload"
)

// mustRun advances sys by cycles, failing the test on an invariant
// violation.
func mustRun(t testing.TB, sys *sim.System, cycles uint64) {
	t.Helper()
	if err := sys.Run(context.Background(), cycles); err != nil {
		t.Fatal(err)
	}
}

// mustMeasure is Measure failing the test on an invariant violation.
func mustMeasure(t testing.TB, sys *sim.System, warmup, window uint64) sim.Result {
	t.Helper()
	res, err := sys.Measure(context.Background(), warmup, window)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func buildSystem(t *testing.T, scheme config.Scheme) *sim.System {
	t.Helper()
	tr, err := victim.DocDistTrace(11, victim.DefaultDocDist())
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(2, scheme)
	sys, err := sim.New(cfg, []sim.CoreSpec{
		{
			Name:      "docdist",
			Source:    &trace.Loop{Inner: tr},
			Protected: true,
			Defense:   rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8},
		},
		{Name: "lbm", Source: workload.MustSource(p, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// encodeState is the save path a fleet shard checkpoint takes:
// json.Marshal of the state, then Frame.
func encodeState(st *sim.SystemState) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	return Frame(payload), nil
}

// decodeState is the matching resume path: Unframe, then DecodeStrict
// into a sim.SystemState.
func decodeState(data []byte) (*sim.SystemState, error) {
	payload, err := Unframe(data)
	if err != nil {
		return nil, err
	}
	st := new(sim.SystemState)
	if err := DecodeStrict(payload, st); err != nil {
		return nil, err
	}
	return st, nil
}

func stateBytes(t *testing.T, sys *sim.System) []byte {
	t.Helper()
	st, err := sys.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRoundTripGolden is the checkpoint invariant: for every scheme,
// Run(2N) and Run(N) -> Save -> Load into a fresh system -> Run(N) must
// produce bit-identical egress traces and bit-identical final state.
func TestRoundTripGolden(t *testing.T) {
	const half = 60_000
	schemes := []config.Scheme{
		config.Insecure,
		config.FixedService,
		config.FSBTA,
		config.TemporalPartitioning,
		config.Camouflage,
		config.DAGguise,
	}
	for _, scheme := range schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			straight := buildSystem(t, scheme)
			straight.EnableEgressTrace()
			mustRun(t, straight, 2*half)

			first := buildSystem(t, scheme)
			first.EnableEgressTrace()
			mustRun(t, first, half)
			st, err := first.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			frame, err := encodeState(st)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := decodeState(frame)
			if err != nil {
				t.Fatal(err)
			}

			resumed := buildSystem(t, scheme)
			if err := resumed.RestoreState(loaded); err != nil {
				t.Fatal(err)
			}
			resumed.EnableEgressTrace()
			mustRun(t, resumed, half)

			for dom := mem.Domain(1); dom <= 2; dom++ {
				want := straight.EgressTrace(dom)
				got := append(append([]sim.EgressEvent(nil), first.EgressTrace(dom)...), resumed.EgressTrace(dom)...)
				if len(want) != len(got) {
					t.Fatalf("domain %d: straight run emitted %d egress events, split run %d", dom, len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("domain %d: egress event %d diverged: straight %+v, split %+v", dom, i, want[i], got[i])
					}
				}
			}

			wantState := stateBytes(t, straight)
			gotState := stateBytes(t, resumed)
			if !bytes.Equal(wantState, gotState) {
				t.Fatalf("final state diverged after save/load/resume (%d vs %d bytes)", len(wantState), len(gotState))
			}
		})
	}
}

// TestEncodeDeterministic: encoding the same state twice, and encoding a
// decoded copy, must yield identical bytes — no map-order or pointer noise.
func TestEncodeDeterministic(t *testing.T) {
	sys := buildSystem(t, config.DAGguise)
	mustRun(t, sys, 20_000)
	st, err := sys.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	a, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same state differ")
	}
	dec, err := decodeState(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := encodeState(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("re-encoding a decoded state differs from the original")
	}
}

func TestRestoreRejectsSchemeMismatch(t *testing.T) {
	sys := buildSystem(t, config.DAGguise)
	mustRun(t, sys, 10_000)
	st, err := sys.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	other := buildSystem(t, config.Insecure)
	if err := other.RestoreState(st); err == nil {
		t.Fatal("restoring a DAGguise snapshot into an insecure system succeeded")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	sys := buildSystem(t, config.Insecure)
	mustRun(t, sys, 10_000)
	frame := stateBytes(t, sys)

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"header only", func(b []byte) []byte { return b[:12] }, ErrTruncated},
		{"cut payload", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated},
		{"cut checksum", func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrBadMagic},
		{"future version", func(b []byte) []byte { b[11] = 99; return b }, ErrUnsupportedVersion},
		{"payload bit flip", func(b []byte) []byte { b[headerLen+10] ^= 0x01; return b }, ErrChecksum},
		{"checksum bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }, ErrChecksum},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAA) }, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mut(append([]byte(nil), frame...))
			_, err := decodeState(data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzDecode feeds arbitrary mutations of a valid snapshot into the
// checkpoint resume path (Unframe, then DecodeStrict).
// Every outcome must be either a clean decode or one of the typed sentinel
// errors — never a panic, never an untyped failure.
func FuzzDecode(f *testing.F) {
	tr, err := victim.DocDistTrace(11, victim.DefaultDocDist())
	if err != nil {
		f.Fatal(err)
	}
	p, err := workload.ByName("lbm")
	if err != nil {
		f.Fatal(err)
	}
	cfg := config.Default(2, config.DAGguise)
	sys, err := sim.New(cfg, []sim.CoreSpec{
		{
			Name:      "docdist",
			Source:    &trace.Loop{Inner: tr},
			Protected: true,
			Defense:   rdag.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8},
		},
		{Name: "lbm", Source: workload.MustSource(p, 5)},
	})
	if err != nil {
		f.Fatal(err)
	}
	mustRun(f, sys, 5_000)
	st, err := sys.SaveState()
	if err != nil {
		f.Fatal(err)
	}
	frame, err := encodeState(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame, uint32(0), byte(0))
	f.Add(frame, uint32(len(frame)/2), byte(0x40))
	f.Add([]byte(Magic), uint32(0), byte(0))

	f.Fuzz(func(t *testing.T, data []byte, cut uint32, flip byte) {
		mutated := append([]byte(nil), data...)
		if int(cut) < len(mutated) {
			if flip != 0 {
				mutated[cut] ^= flip
			} else {
				mutated = mutated[:cut]
			}
		}
		st, err := decodeState(mutated)
		if err == nil {
			if st == nil {
				t.Fatal("decode returned nil state with nil error")
			}
			return
		}
		for _, sentinel := range []error{ErrTruncated, ErrBadMagic, ErrUnsupportedVersion, ErrChecksum, ErrCorrupt} {
			if errors.Is(err, sentinel) {
				return
			}
		}
		t.Fatalf("decode returned untyped error %v", err)
	})
}
