package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/mem"
)

// TestPinnedSystemOutputs pins the single-channel machine's clean-run
// outputs across versions, not just within one build: for every scheme,
// the SHA-256 over the JSON of Measure(20k, 60k) followed by the JSON of
// both domains' shaped-egress traces. The values were recorded before the
// engine's internals were last restructured; any change to them is a
// change to the simulated machine, not a refactor.
func TestPinnedSystemOutputs(t *testing.T) {
	want := map[config.Scheme]string{
		config.Insecure:             "711a5c5b13a115616d767dce70bc7703f8f3a94363efdfa55709ae1ca89e4d95",
		config.FixedService:         "0321239a0a2a03f61e2ce5f5d509b2f66d7c1d06ea782bcc1ab6b4a12d1be41d",
		config.FSBTA:                "a42348bcafe80cda60df25f533a362cade7faa8e7580773a79d3ef0dd0bcdc3e",
		config.TemporalPartitioning: "a4d9ab55685876b4f622de543daac4f1aa1c6d3c5469726b13ae33cb7cf680c4",
		config.Camouflage:           "b9319ad6601c0772f950c5cfe2520dfa0ace2bbf6ee8a0cc0e452ce58cb541b9",
		config.DAGguise:             "66c52cbc028acba615dd4e2a7c9d9dfae532ba74255f3cb5f8e6141e7c7c7e20",
	}
	for scheme, sum := range want {
		scheme, sum := scheme, sum
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			sys := buildSystem(t, scheme)
			sys.EnableEgressTrace()
			res := mustMeasure(t, sys, 20_000, 60_000)
			h := sha256.New()
			for _, v := range []interface{}{res, sys.EgressTrace(mem.Domain(1)), sys.EgressTrace(mem.Domain(2))} {
				blob, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(blob)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != sum {
				t.Fatalf("%s outputs hash to %s, pinned %s", scheme, got, sum)
			}
		})
	}
}
