package obs

import (
	"bytes"
	"reflect"
	"testing"
)

func TestTracerRingOrder(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 3; i++ {
		tr.Emit(Event{Cycle: uint64(i)})
	}
	evs := tr.Events()
	if len(evs) != 3 || evs[0].Cycle != 0 || evs[2].Cycle != 2 {
		t.Fatalf("pre-wrap events = %+v", evs)
	}
	for i := 3; i < 10; i++ {
		tr.Emit(Event{Cycle: uint64(i)})
	}
	evs = tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest-first order)", i, ev.Cycle, want)
		}
	}
	if tr.Overwritten() != 6 {
		t.Fatalf("overwritten = %d, want 6", tr.Overwritten())
	}
	if tr.Cap() != 4 {
		t.Fatalf("cap = %d", tr.Cap())
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer(2)
	tr.Emit(Event{Cycle: 1})
	tr.Emit(Event{Cycle: 2})
	tr.Emit(Event{Cycle: 3})
	tr.Reset()
	if tr.Len() != 0 || tr.Overwritten() != 0 {
		t.Fatalf("reset left len=%d overwritten=%d", tr.Len(), tr.Overwritten())
	}
	tr.Emit(Event{Cycle: 9})
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Cycle != 9 {
		t.Fatalf("post-reset events = %+v", evs)
	}
	if tr.Cap() != 2 {
		t.Fatal("reset changed capacity")
	}
}

func TestTracerDefaultCap(t *testing.T) {
	if got := NewTracer(0).Cap(); got != DefaultTraceCap {
		t.Fatalf("default cap = %d, want %d", got, DefaultTraceCap)
	}
	if got := NewTracer(-5).Cap(); got != DefaultTraceCap {
		t.Fatalf("negative cap = %d, want %d", got, DefaultTraceCap)
	}
}

// TestTracerOverflowDeterministic pins ring-overflow behavior: for a
// given emission sequence the retained window, the overwrite count and
// the export are identical run to run, regardless of how far past
// capacity the sequence runs.
func TestTracerOverflowDeterministic(t *testing.T) {
	emitAll := func() *Tracer {
		tr := NewTracer(8)
		for i := 0; i < 100; i++ {
			tr.Emit(Event{Cycle: uint64(i), Comp: Component(i % 3), Kind: EventKind(i % 5), Index: int32(i % 4)})
		}
		return tr
	}
	a, b := emitAll(), emitAll()

	if a.Overwritten() != 92 || b.Overwritten() != a.Overwritten() {
		t.Fatalf("overwritten = %d / %d, want 92", a.Overwritten(), b.Overwritten())
	}
	evA, evB := a.Events(), b.Events()
	if len(evA) != 8 {
		t.Fatalf("retained %d events, want 8", len(evA))
	}
	// The retained window is exactly the newest 8 emissions, in order.
	for i, ev := range evA {
		if want := uint64(92 + i); ev.Cycle != want {
			t.Fatalf("event %d has cycle %d, want %d", i, ev.Cycle, want)
		}
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Fatalf("two identical emission sequences retained different windows")
	}

	var bufA, bufB bytes.Buffer
	if err := WriteChromeTrace(&bufA, evA); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&bufB, evB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("overflowed-trace export not byte-deterministic")
	}
}
