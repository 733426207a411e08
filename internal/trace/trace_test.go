package trace

import (
	"testing"
	"testing/quick"

	"dagguise/internal/mem"
)

func TestSliceNextAndReset(t *testing.T) {
	s := &Slice{Ops: []Op{{Addr: 1}, {Addr: 2}}}
	op, ok := s.Next()
	if !ok || op.Addr != 1 {
		t.Fatalf("first = %+v, %v", op, ok)
	}
	s.Next()
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted slice returned an op")
	}
	s.Reset()
	op, ok = s.Next()
	if !ok || op.Addr != 1 {
		t.Fatal("reset did not rewind")
	}
}

func TestLoopWraps(t *testing.T) {
	l := &Loop{Inner: &Slice{Ops: []Op{{Addr: 1}, {Addr: 2}}}}
	var got []uint64
	for i := 0; i < 5; i++ {
		op, ok := l.Next()
		if !ok {
			t.Fatal("loop exhausted")
		}
		got = append(got, op.Addr)
	}
	want := []uint64{1, 2, 1, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
	if l.Wraps != 2 {
		t.Fatalf("wraps = %d, want 2", l.Wraps)
	}
	l.Reset()
	if l.Wraps != 0 {
		t.Fatal("reset did not clear wraps")
	}
}

func TestLoopEmptyInner(t *testing.T) {
	l := &Loop{Inner: &Slice{}}
	if _, ok := l.Next(); ok {
		t.Fatal("empty loop returned an op")
	}
}

func TestRecorderGapsAndKinds(t *testing.T) {
	r := NewRecorder()
	r.Compute(10)
	r.Load(0x100)
	r.Compute(3)
	r.Compute(2)
	r.Store(0x200)
	r.LoadDep(0x300)
	tr := r.Trace()
	if len(tr.Ops) != 3 {
		t.Fatalf("ops = %d", len(tr.Ops))
	}
	if tr.Ops[0].Gap != 10 || tr.Ops[0].Kind != mem.Read {
		t.Fatalf("op0 = %+v", tr.Ops[0])
	}
	if tr.Ops[1].Gap != 5 || tr.Ops[1].Kind != mem.Write {
		t.Fatalf("op1 = %+v", tr.Ops[1])
	}
	if tr.Ops[2].Dep != 1 {
		t.Fatalf("op2 dep = %d, want 1", tr.Ops[2].Dep)
	}
	if r.Len() != 3 {
		t.Fatal("Len mismatch")
	}
}

func TestLoopDeterministicProperty(t *testing.T) {
	// Property: reading 2n ops from a loop over an n-op slice yields the
	// slice twice.
	f := func(addrs []uint16) bool {
		if len(addrs) == 0 {
			return true
		}
		ops := make([]Op, len(addrs))
		for i, a := range addrs {
			ops[i] = Op{Addr: uint64(a)}
		}
		l := &Loop{Inner: &Slice{Ops: ops}}
		for pass := 0; pass < 2; pass++ {
			for i := range ops {
				op, ok := l.Next()
				if !ok || op.Addr != ops[i].Addr {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
