package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
	"dagguise/internal/obs"
	"dagguise/internal/rdag"
)

// eightCoreMachine builds the eight-core machine of Figure 10: four
// protected DocDist victims with the eight-core defense, each followed by
// an lbm co-runner.
func eightCoreMachine(t *testing.T, scheme config.Scheme) *System {
	t.Helper()
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
	return sys
}

// sha256Hex returns the hex SHA-256 of v's JSON encoding.
func sha256Hex(t *testing.T, v interface{}) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestPinnedSystemState pins the machines' full checkpoint state across
// versions: the SHA-256 of json.Marshal(SaveState()) after a fixed run.
// The state holds every core's window, MSHR and prefetch bookkeeping and
// statistics, the request-ID allocator, the transaction queue in arrival
// order, the in-flight completion heap, every bank's timing gates and the
// per-domain served-byte list, so a refactor of the cores, the controller
// or the DRAM model that changes a single request ID, pick, completion
// cycle or the order of a serialized list moves the hash.
//
// Four kinds of machine are pinned:
//   - the eight-core machine of Figure 10 with four protected DocDist
//     victims and four lbm co-runners, after 30k cycles, under every
//     scheme;
//   - the eight-core DAGguise and Camouflage machines with a 24-event
//     fault campaign over the four victims' domains, after 30k cycles.
//     Backpressure windows make a shaper port's admission depend on the
//     cycle, and delay/drop windows move the responses the cores see;
//   - the two-core machines of Figure 9 with the two most compute-bound
//     co-runners, after 60k cycles, where most core cycles carry no
//     memory event;
//   - one channel of the 4-channel, 100-tenant fleet machine after 10k
//     cycles, where the partitioned queue is deep and the served-byte list
//     holds about one entry per tenant.
func TestPinnedSystemState(t *testing.T) {
	eightCore := func(t *testing.T, scheme config.Scheme) *System {
		sys := eightCoreMachine(t, scheme)
		mustRun(t, sys, 30_000)
		return sys
	}
	withFaults := func(seed int64) func(*testing.T, config.Scheme) *System {
		return func(t *testing.T, scheme config.Scheme) *System {
			sys := eightCoreMachine(t, scheme)
			sched := fault.Campaign(seed, fault.CampaignConfig{
				Horizon: 30_000, Domains: []mem.Domain{1, 3, 5, 7}, MaxStorm: 2000, Events: 24,
			})
			if err := sys.AttachFaults(sched); err != nil {
				t.Fatal(err)
			}
			mustRun(t, sys, 30_000)
			return sys
		}
	}
	// twoCore mirrors Figure 9's row for the co-runner at app index i: the
	// victim is protected under every scheme but the insecure baseline.
	twoCore := func(app string, i int64) func(*testing.T, config.Scheme) *System {
		return func(t *testing.T, scheme config.Scheme) *System {
			specs := []CoreSpec{docdistSpec(t, scheme != config.Insecure), specFor(t, app, i+21, false)}
			sys, err := New(config.Default(2, scheme), specs)
			if err != nil {
				t.Fatal(err)
			}
			mustRun(t, sys, 60_000)
			return sys
		}
	}
	cluster := func(t *testing.T, scheme config.Scheme) *System {
		sys, err := NewCluster(clusterCfg(t, 4, 100, scheme), 1, 2, 1, 11)
		if err != nil {
			t.Fatal(err)
		}
		mustRun(t, sys, 10_000)
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
		{"eight-core/fs", config.FixedService, eightCore,
			"4a56a24b16bc38fc63080ca7d598e375d4c14efdb01a0b8257ad3dd3c55c020d"},
		{"eight-core/fs-bta", config.FSBTA, eightCore,
			"77444af9ff210ca5299eb94e3ea5067b6e7dcf0e1329fd8e165799a03a380490"},
		{"eight-core/tp", config.TemporalPartitioning, eightCore,
			"525b59904b9c4d284640171a1a85b9c8ef7751ed54ed9625cc17728256bdb303"},
		{"eight-core/dagguise", config.DAGguise, eightCore,
			"2b7d9a3107b9c3f431ab30fe0c7a7bb75852329ed212ec543324224ecc738c22"},
		{"eight-core/camouflage", config.Camouflage, eightCore,
			"c8ed3a87b635ed7e729a09d3d9c28131ef0e820498ad7670f9c3fd0541aa9971"},
		{"eight-core-faults/dagguise/seed1", config.DAGguise, withFaults(1),
			"32f13ab1f94ba38caf6a5fd5d1436c0f1d07ec266c686f868c4541e149b3ca1c"},
		{"eight-core-faults/dagguise/seed2", config.DAGguise, withFaults(2),
			"81fe896e4e4fde5224ddcd49d1950b83427c4387fe15706c7788266b7cb46359"},
		{"eight-core-faults/camouflage/seed1", config.Camouflage, withFaults(1),
			"970a121eb7626ba420a225ae3f27c2cada897175c8729a1ed8ab0e378a3ac640"},
		{"eight-core-faults/camouflage/seed2", config.Camouflage, withFaults(2),
			"a7ceca31910a2f4a2aac601c3f71b159379f4942351ad357f421b7a5f6019cdf"},
		{"two-core/leela/insecure", config.Insecure, twoCore("leela", 0),
			"dcccb007dc472e4427169e79c18f02ad387e2a6ebaaa4315d6b6d4d59b524b6d"},
		{"two-core/leela/fs-bta", config.FSBTA, twoCore("leela", 0),
			"fd744c6dc69a406e68ea54fb14db4ca0e9e4d6b0caec9a5b49ab3f88847859e8"},
		{"two-core/leela/dagguise", config.DAGguise, twoCore("leela", 0),
			"c6fefe2e01a69d1cb431810b7e6f573de07b47894421b603189ff040d2fb619f"},
		{"two-core/exchange2/insecure", config.Insecure, twoCore("exchange2", 1),
			"62ed47a792f8f550273a7b02aa1f09084b6736dc1dd27e4023ae5a185d115d02"},
		{"two-core/exchange2/fs-bta", config.FSBTA, twoCore("exchange2", 1),
			"7115672c520d68326d905c3cf304a3b4e00de6d6e4e7623225f8273d906470b5"},
		{"two-core/exchange2/dagguise", config.DAGguise, twoCore("exchange2", 1),
			"700620615034b9e56bc2083b70106013c9acdcdde47f8bd861bccce8f630ff55"},
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
			if got := sha256Hex(t, st); got != tc.want {
				t.Fatalf("%s state hashes to %s, pinned %s", tc.name, got, tc.want)
			}
		})
	}
}

// TestPinnedMeasureMetrics pins the observability snapshot a measurement
// window returns: the SHA-256 of json.Marshal(Result.Metrics) from
// Measure(20_000, 40_000) on the eight-core machine with a registry
// attached. The snapshot holds every per-cycle core sample (the MLP
// histogram, retired instructions, ROB-stall cycles) next to the
// controller, DRAM and shaper metrics, so a change to how often or with
// what value a component records moves the hash even when the machine's
// state does not.
func TestPinnedMeasureMetrics(t *testing.T) {
	cases := []struct {
		scheme config.Scheme
		want   string
	}{
		{config.Insecure,
			"d80323d6740b80d26dcc77055a64f7030bc602d352d47b23956fc2b2835586c1"},
		{config.FSBTA,
			"9fa4b86af4622078cbba8992f63a95752b71e37bf556cf5a2c3441ac93cb5ca8"},
		{config.TemporalPartitioning,
			"3c6e407fc2bd864c2209ade683b9d22742af42a20a39a5eb0165c229e49659cc"},
		{config.DAGguise,
			"3947710ea493ebdaf4531ee3b5e80be3a3796ef6fb17109e4884088e155de16d"},
		{config.Camouflage,
			"7df030a9e2e4fa8ff942c3baf96bc6dd3d2361a28e715fe39d3216116ba5482b"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scheme.String(), func(t *testing.T) {
			t.Parallel()
			sys := eightCoreMachine(t, tc.scheme)
			sys.Observe(obs.NewRegistry(sys.NumDomains()), nil)
			res := mustMeasure(t, sys, 20_000, 40_000)
			if res.Metrics == nil {
				t.Fatal("no metrics snapshot with a registry attached")
			}
			if got := sha256Hex(t, res.Metrics); got != tc.want {
				t.Fatalf("%s metrics hash to %s, pinned %s", tc.scheme, got, tc.want)
			}
		})
	}
}
