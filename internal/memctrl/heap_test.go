package memctrl

import (
	"container/heap"
	"slices"
	"testing"

	"dagguise/internal/mem"
)

// refHeap is the completion heap as it stood on container/heap, the
// reference the typed heap must follow element for element.
type refHeap []completion

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(completion)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// FuzzCompletionHeapMatchesContainerHeap feeds one stream of pushes and
// pops to the typed heap and to container/heap. Each byte is an operation:
// a pop when its low bits say so and the heap is not empty, otherwise a
// push of a completion at one of eight cycles, so most cycles repeat. The
// popped completions and the backing arrays must agree after every
// operation: equal-cycle completions leave in the same order, and a
// checkpoint of either holds the same array.
func FuzzCompletionHeapMatchesContainerHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0xff, 0xff, 8, 8, 8, 0xff})
	f.Add([]byte{7, 7, 7, 7, 3, 3, 3, 0xfc, 0xfc, 1, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc})
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0xba, 0xcb, 0xdc, 0xed, 0xfe})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var got completionHeap
		var want refHeap
		for i, op := range ops {
			if op&3 == 3 && len(want) > 0 {
				w := heap.Pop(&want).(completion)
				if g := got.pop(); g != w {
					t.Fatalf("op %d: popped %+v, container/heap popped %+v", i, g, w)
				}
			} else {
				c := completion{at: uint64(op>>2) % 8, resp: mem.Response{ID: uint64(i)}}
				heap.Push(&want, c)
				got.push(c)
			}
			if !slices.Equal(got, completionHeap(want)) {
				t.Fatalf("op %d: backing array %v, container/heap's %v", i, got, want)
			}
		}
	})
}

// TestControllerTickAllocatesNothing pins the memory event path of the
// controller allocation-free once warmed: a request enqueued, picked,
// issued to the device and drained back through Tick's reused buffer.
func TestControllerTickAllocatesNothing(t *testing.T) {
	c, m := testRig(FRFCFS{}, true)
	now, id := uint64(0), uint64(0)
	roundTrip := func() {
		id++
		if !c.Enqueue(mem.Request{ID: id, Addr: m.AddrForBank(int(id%8), id%4, 0), Kind: mem.Kind(id % 2), Domain: 1}, now) {
			t.Fatal("enqueue refused")
		}
		for served := 0; served == 0; now++ {
			served = len(c.Tick(now))
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("an issue-and-drain round trip allocates %v times", allocs)
	}
}
