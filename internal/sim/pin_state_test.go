package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/rdag"
)

// TestPinnedSystemState pins the machines' full checkpoint state across
// versions: the SHA-256 of json.Marshal(SaveState()) after a fixed run.
// The state holds the transaction queue in arrival order, the in-flight
// completion heap, every bank's timing gates and the per-domain served-byte
// list, so a refactor of the controller or the DRAM model that changes a
// single pick, a single completion cycle or the order of a serialized list
// moves the hash.
//
// Two kinds of machine are pinned:
//   - the eight-core machine of Figure 10 with four protected DocDist
//     victims and four lbm co-runners, after 30k cycles;
//   - one channel of the 4-channel, 100-tenant fleet machine after 10k
//     cycles, where the partitioned queue is deep and the served-byte list
//     holds about one entry per tenant.
func TestPinnedSystemState(t *testing.T) {
	eightCore := func(t *testing.T, scheme config.Scheme) *System {
		victim := func() CoreSpec {
			s := docdistSpec(t, true)
			s.Defense = rdag.Template{Sequences: 4, Weight: 300, WriteRatio: 0.25, Banks: 8}
			return s
		}
		specs := []CoreSpec{
			victim(), specFor(t, "lbm", 21, false),
			victim(), specFor(t, "lbm", 22, false),
			victim(), specFor(t, "lbm", 23, false),
			victim(), specFor(t, "lbm", 24, false),
		}
		sys, err := New(config.Default(8, scheme), specs)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(30_000)
		return sys
	}
	cluster := func(t *testing.T, scheme config.Scheme) *System {
		sys, err := NewCluster(clusterCfg(t, 4, 100, scheme), 1, 2, 1, 11)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(10_000)
		return sys
	}
	cases := []struct {
		name   string
		scheme config.Scheme
		build  func(*testing.T, config.Scheme) *System
		want   string
	}{
		{"eight-core/insecure", config.Insecure, eightCore,
			"112ab9a6092b086e4da12146249667849c26dd2458a76b23699c63ccaeec008a"},
		{"eight-core/fs-bta", config.FSBTA, eightCore,
			"77444af9ff210ca5299eb94e3ea5067b6e7dcf0e1329fd8e165799a03a380490"},
		{"eight-core/tp", config.TemporalPartitioning, eightCore,
			"525b59904b9c4d284640171a1a85b9c8ef7751ed54ed9625cc17728256bdb303"},
		{"eight-core/dagguise", config.DAGguise, eightCore,
			"2b7d9a3107b9c3f431ab30fe0c7a7bb75852329ed212ec543324224ecc738c22"},
		{"eight-core/camouflage", config.Camouflage, eightCore,
			"c8ed3a87b635ed7e729a09d3d9c28131ef0e820498ad7670f9c3fd0541aa9971"},
		{"cluster/insecure", config.Insecure, cluster,
			"8b02394fb6ed6f220c325b2417e4e7eeb278defa8b33eb11c88421047f5a2ff8"},
		{"cluster/dagguise", config.DAGguise, cluster,
			"9475c188c481eaef083e52b2d08e582ac0d32a346c4993e0f6aa66d6b5aaa864"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			st, err := tc.build(t, tc.scheme).SaveState()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("%s state hashes to %s, pinned %s", tc.name, got, tc.want)
			}
		})
	}
}
