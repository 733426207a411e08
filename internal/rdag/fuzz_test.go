package rdag

import (
	"encoding/json"
	"testing"
)

// FuzzGraphJSON checks the graph deserialiser never panics and that every
// accepted graph satisfies the structural invariants (Validate ran inside
// UnmarshalJSON) and re-serialises cleanly.
func FuzzGraphJSON(f *testing.F) {
	tpl := Template{Sequences: 2, Weight: 100, Banks: 4}
	g, _ := tpl.Unroll(3)
	seed, _ := json.Marshal(g)
	f.Add(seed)
	f.Add([]byte(`{"vertices":[],"edges":[]}`))
	f.Add([]byte(`{"vertices":[{"id":0,"bank":0,"kind":0}],"edges":[{"from":0,"to":0,"weight":1}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return
		}
		// Accepted graphs are valid by construction; exercise traversals.
		order := g.TopoOrder()
		if len(order) != len(g.Vertices) {
			t.Fatalf("topo order covers %d of %d vertices", len(order), len(g.Vertices))
		}
		if _, err := json.Marshal(&g); err != nil {
			t.Fatalf("accepted graph failed to marshal: %v", err)
		}
	})
}

// FuzzPatternDriverNextPoll drives a pattern driver through fuzzed Poll,
// Complete, checkpoint-restore and Reset steps and checks after every step
// that the cached NextPoll equals a scan of the sequences, and that Poll
// emits exactly when NextPoll has come. Each step is an op byte and an
// argument byte: the cycles to advance before a Poll, or which outstanding
// slot completes.
func FuzzPatternDriverNextPoll(f *testing.F) {
	f.Add(uint8(3), uint8(40), []byte{0, 0, 1, 0, 0, 10, 1, 1, 0, 40, 2, 0, 1, 0, 0, 3, 3, 0, 0, 0})
	f.Add(uint8(1), uint8(0), []byte{0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	f.Add(uint8(7), uint8(255), []byte{0, 0, 1, 5, 1, 2, 0, 200, 0, 100, 1, 0, 2, 0, 0, 255})
	f.Fuzz(func(t *testing.T, seqs, weight uint8, ops []byte) {
		tpl := Template{Sequences: 1 + int(seqs%8), Weight: uint64(weight), WriteRatio: 0.25, Banks: 4}
		d := MustPatternDriver(tpl)
		var now uint64
		var outstanding []int // tokens emitted and not completed
		for step := 0; len(ops) > 0; step++ {
			op, arg := ops[0]%4, 0
			if len(ops) > 1 {
				arg = int(ops[1])
			}
			ops = ops[min(2, len(ops)):]
			switch op {
			case 0:
				now += uint64(arg)
				next := d.NextPoll()
				slots := d.Poll(now)
				if (len(slots) > 0) != (next <= now) {
					t.Fatalf("step %d: cycle %d: NextPoll %d but Poll returned %d slots", step, now, next, len(slots))
				}
				for _, s := range slots {
					outstanding = append(outstanding, s.Token)
				}
			case 1:
				if len(outstanding) == 0 {
					continue
				}
				k := arg % len(outstanding)
				d.Complete(outstanding[k], now)
				outstanding = append(outstanding[:k], outstanding[k+1:]...)
			case 2:
				st := d.SaveState()
				d = MustPatternDriver(tpl)
				if err := d.RestoreState(st); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			case 3:
				d.Reset()
				outstanding = outstanding[:0]
			}
			if got, want := d.NextPoll(), d.scanNextPoll(); got != want {
				t.Fatalf("step %d (op %d): cached NextPoll %d, scan %d", step, op, got, want)
			}
		}
	})
}
