package dagguise_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dagguise"
	"dagguise/internal/attack"
	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/eval"
)

// TestPinnedLeakageOutputs pins the security side's outputs across
// versions: the SHA-256 of the JSON of every leakage result the attack,
// eval and audit entry points produce on the Figure 5 secret pair. The
// harness runs, the probe latencies they record, the calibrated
// thresholds, the audit taps and the window reports all feed these
// hashes, so a change to any of them is a change to the measured
// leakage, not a refactor.
func TestPinnedLeakageOutputs(t *testing.T) {
	// The Figure 5 pair of eval's leakage experiments.
	s0 := attack.Pattern{Gaps: []uint64{100}, Banks: []int{0, 1, 2, 3}}
	s1 := attack.Pattern{Gaps: []uint64{200}, Banks: []int{0, 1, 2, 3}}
	probe := attack.Probe{Bank: 0, Row: 0, Gap: 120}
	dist := camouflage.Distribution{Intervals: []uint64{200, 400}}

	leakage := func(scheme config.Scheme) func() (interface{}, error) {
		return func() (interface{}, error) {
			return attack.MeasureLeakageOpts(scheme, eval.DefaultDefense(), dist, s0, s1, probe, 100, 2, attack.MeasureOpts{})
		}
	}
	streams := func(scheme config.Scheme, seed int64) func() (interface{}, error) {
		return func() (interface{}, error) {
			a, b, err := eval.AuditStreams(scheme, 200, seed)
			return [][]audit.Sample{a, b}, err
		}
	}
	report := func(scheme config.Scheme) func() (interface{}, error) {
		return func() (interface{}, error) {
			rep, err := eval.Audit(scheme, 200, audit.DefaultConfig(), nil)
			if err != nil {
				return nil, err
			}
			blob, err := rep.JSON()
			return json.RawMessage(blob), err
		}
	}
	cases := []struct {
		name string
		run  func() (interface{}, error)
		want string
	}{
		{"leakage/insecure", leakage(config.Insecure),
			"987628527b4b4cf356304a6df2274514548bc7bf013883f184772267fe5ffc86"},
		{"leakage/camouflage", leakage(config.Camouflage),
			"b2b3b6553333ec85b2e247ba8f12bc5529f0bd9f3ed621bb4c7bab7796a9cf0c"},
		{"leakage/fs", leakage(config.FixedService),
			"0a0c8bb931245b40e712757dae1b13ceb6fb94d8b6ca2cafd0ec651c516f4d77"},
		{"leakage/fs-bta", leakage(config.FSBTA),
			"be6fe4ff5496d80060c0070c87f27551164e16fac6291ec64ed5491ad64e293b"},
		{"leakage/tp", leakage(config.TemporalPartitioning),
			"69defacd73f75d6f593084817ed754ddbf3a2b13962abffb255e14346d3c58ff"},
		{"leakage/dagguise", leakage(config.DAGguise),
			"abc00f9c5f730115c50dbe565e58f4464bf0937203922ee19d8bc2b129fcc90c"},
		{"table1", func() (interface{}, error) { return eval.Table1Observed(100, 2, nil) },
			"4a50e2136411c5d2fc728640aa1444b201c3a8e183789686355456d66780510d"},
		{"figure1", func() (interface{}, error) { return dagguise.Figure1Primer(100) },
			"b7f81707d8ba54fefe7c67e75c27d7de7e4eac4b1146e714089a6bf9246737c5"},
		{"streams/insecure/seed1", streams(config.Insecure, 1),
			"4ada6ddcb044da9cf86b74d9aaaf7adfa3ad46eb5a54e59e5ef4001646889182"},
		{"streams/insecure/seed2", streams(config.Insecure, 2),
			"4ada6ddcb044da9cf86b74d9aaaf7adfa3ad46eb5a54e59e5ef4001646889182"},
		{"streams/dagguise/seed1", streams(config.DAGguise, 1),
			"eb53705d416ff765ed3719d2f46d80ef6ff60d574e9c862792fc218273b76677"},
		{"streams/dagguise/seed2", streams(config.DAGguise, 2),
			"eb53705d416ff765ed3719d2f46d80ef6ff60d574e9c862792fc218273b76677"},
		{"audit/insecure", report(config.Insecure),
			"aa325a053020a7e1eb72dd2bd8c8ea1795ab719ff7b5e6e0f33e21fab2012620"},
		{"audit/dagguise", report(config.DAGguise),
			"8720b3e48cdbc89f78f68b2dbf7f969f84258734cfc8b611eab12750fee58d4a"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			v, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("%s hashes to %s, pinned %s", tc.name, got, tc.want)
			}
		})
	}
}
