package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestBucketMath(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 20, 21}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := Bucket(c.v); got != c.want {
			t.Errorf("Bucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if BucketLow(0) != 0 || BucketLow(1) != 1 || BucketLow(4) != 8 {
		t.Fatalf("BucketLow broken: %d %d %d", BucketLow(0), BucketLow(1), BucketLow(4))
	}
	// Every value must land in the bucket whose range contains it.
	for _, v := range []uint64{0, 1, 5, 63, 64, 1000, 1 << 40} {
		b := Bucket(v)
		if v < BucketLow(b) {
			t.Errorf("value %d below its bucket %d floor %d", v, b, BucketLow(b))
		}
		if b+1 < NumBuckets && v >= BucketLow(b+1) {
			t.Errorf("value %d reaches next bucket %d floor %d", v, b+1, BucketLow(b+1))
		}
	}
}

func TestRegistryCountersAndHists(t *testing.T) {
	r := NewRegistry(3)
	r.Inc(CtrRowHits, 1)
	r.Add(CtrRowHits, 1, 4)
	r.Inc(CtrRowHits, 2)
	r.Inc(CtrRowMisses, 0)
	if got := r.Counter(CtrRowHits, 1); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.CounterTotal(CtrRowHits); got != 6 {
		t.Fatalf("total = %d, want 6", got)
	}
	r.Observe(HistReqLatency, 1, 100) // bucket 7: [64, 128)
	r.Observe(HistReqLatency, 1, 100)
	r.Observe(HistReqLatency, 1, 3) // bucket 2
	s := r.Snapshot()
	if got := s.HistTotal(HistReqLatency, 1); got != 3 {
		t.Fatalf("hist total = %d, want 3", got)
	}
	if s.HistBuckets(HistReqLatency, 1)[7] != 2 {
		t.Fatalf("bucket 7 = %d, want 2", s.HistBuckets(HistReqLatency, 1)[7])
	}
	if p50, ok := s.HistQuantile(HistReqLatency, 1, 0.5); !ok || p50 != 64 {
		t.Fatalf("p50 = %d, %v, want 64", p50, ok)
	}
	// Out-of-range domains clamp to the unattributed slot 0 rather than
	// corrupting memory.
	r.Inc(CtrRowHits, 99)
	r.Inc(CtrRowHits, -1)
	if got := r.Counter(CtrRowHits, 0); got != 2 {
		t.Fatalf("clamped counter = %d, want 2", got)
	}
}

func TestNilRegistryAndTracerAreNoOps(t *testing.T) {
	var r *Registry
	r.Inc(CtrRowHits, 1)
	r.Add(CtrRowHits, 1, 10)
	r.Observe(HistReqLatency, 1, 10)
	if r.Counter(CtrRowHits, 1) != 0 || r.CounterTotal(CtrRowHits) != 0 || r.Domains() != 0 {
		t.Fatal("nil registry returned nonzero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	var tr *Tracer
	tr.Emit(Event{})
	tr.Reset()
	if tr.Events() != nil || tr.Len() != 0 || tr.Cap() != 0 || tr.Overwritten() != 0 {
		t.Fatal("nil tracer returned nonzero")
	}
	var s *Snapshot
	if s.Counter(CtrRowHits, 0) != 0 || s.CounterTotal(CtrRowHits) != 0 || s.HistTotal(HistMLP, 0) != 0 {
		t.Fatal("nil snapshot returned nonzero")
	}
	if s.Sub(nil) != nil {
		t.Fatal("nil snapshot Sub should be nil")
	}
	if got := FormatSummary(nil, 0); !strings.Contains(got, "disabled") {
		t.Fatalf("nil summary = %q", got)
	}
}

// TestObserveN checks that n samples recorded at once land exactly where
// n Observe calls put them, that n = 0 records nothing, that an
// out-of-range domain clamps to slot 0 like Observe and that a nil
// registry ignores the call.
func TestObserveN(t *testing.T) {
	one, bulk := NewRegistry(3), NewRegistry(3)
	for _, v := range []uint64{0, 3, 100, 1 << 40} {
		for i := 0; i < 5; i++ {
			one.Observe(HistQueueDepth, 2, v)
		}
		bulk.ObserveN(HistQueueDepth, 2, v, 5)
	}
	one.Observe(HistMLP, 99, 7)
	bulk.ObserveN(HistMLP, 99, 7, 1)
	bulk.ObserveN(HistMLP, 1, 7, 0)
	a, b := one.Snapshot(), bulk.Snapshot()
	for _, h := range []Hist{HistQueueDepth, HistMLP} {
		for d := 0; d < 3; d++ {
			ba, bb := a.HistBuckets(h, d), b.HistBuckets(h, d)
			for i := range ba {
				if ba[i] != bb[i] {
					t.Fatalf("%s domain %d bucket %d: ObserveN %d, Observe %d", h, d, i, bb[i], ba[i])
				}
			}
		}
	}
	if got := b.HistTotal(HistQueueDepth, 2); got != 20 {
		t.Fatalf("queue-depth samples = %d, want 20", got)
	}
	if got := b.HistTotal(HistMLP, 0); got != 1 {
		t.Fatalf("clamped samples = %d, want 1", got)
	}
	var r *Registry
	r.ObserveN(HistMLP, 1, 7, 3)
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry(2)
	r.Add(CtrRetired, 1, 10)
	r.Observe(HistMLP, 1, 4)
	before := r.Snapshot()
	r.Add(CtrRetired, 1, 7)
	r.Observe(HistMLP, 1, 4)
	d := r.Snapshot().Sub(before)
	if got := d.Counter(CtrRetired, 1); got != 7 {
		t.Fatalf("delta counter = %d, want 7", got)
	}
	if got := d.HistTotal(HistMLP, 1); got != 1 {
		t.Fatalf("delta hist total = %d, want 1", got)
	}
}

// TestConcurrentCollection exercises the atomic counter/histogram paths and
// background snapshotting under the race detector: the CI race job runs
// this package with -race.
func TestConcurrentCollection(t *testing.T) {
	r := NewRegistry(4)
	tr := NewTracer(1024)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(dom int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				r.Inc(CtrRowHits, dom)
				r.Observe(HistReqLatency, dom, uint64(i))
				tr.Emit(Event{Cycle: uint64(i), Comp: CompBank, Kind: EvRowHit, Domain: int32(dom)})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
			_ = tr.Events()
		}
	}()
	wg.Wait()
	<-done
	if got := r.CounterTotal(CtrRowHits); got != 40_000 {
		t.Fatalf("total = %d, want 40000", got)
	}
	if tr.Len() != 1024 {
		t.Fatalf("tracer retained %d, want full ring 1024", tr.Len())
	}
	if tr.Overwritten() != 40_000-1024 {
		t.Fatalf("overwritten = %d, want %d", tr.Overwritten(), 40_000-1024)
	}
}
