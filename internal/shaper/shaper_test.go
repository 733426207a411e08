package shaper

import (
	"errors"
	"testing"
	"testing/quick"

	"dagguise/internal/mem"
	"dagguise/internal/rdag"
)

func testMapper() *mem.Mapper {
	return mem.MustMapper(mem.Geometry{Channels: 1, Ranks: 1, Banks: 8, RowBytes: 8 << 10, LineBytes: 64, CapacityGiB: 4})
}

func allocator() IDAlloc {
	next := uint64(1 << 32)
	return func() uint64 { next++; return next }
}

func chainShaper(t *testing.T, weight uint64) (*Shaper, *mem.Mapper) {
	t.Helper()
	m := testMapper()
	d := rdag.MustPatternDriver(rdag.Template{Sequences: 1, Weight: weight, Banks: 8})
	return New(1, d, m, 8, allocator(), 42), m
}

// mustEnqueue enqueues and fails the test on a routing error, returning
// whether the queue accepted the request.
func mustEnqueue(t *testing.T, s *Shaper, req mem.Request, now uint64) bool {
	t.Helper()
	ok, err := s.Enqueue(req, now)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	return ok
}

func TestShaperForwardsMatchingRequest(t *testing.T) {
	s, m := chainShaper(t, 100)
	// The first slot prescribes bank 0 (sequence 0, step 0), read.
	req := mem.Request{ID: 7, Addr: m.AddrForBank(0, 5, 3), Kind: mem.Read, Domain: 1}
	if !mustEnqueue(t, s, req, 0) {
		t.Fatal("enqueue rejected")
	}
	out := s.Tick(0)
	if len(out) != 1 {
		t.Fatalf("emitted %d requests, want 1", len(out))
	}
	if out[0].Fake || out[0].ID != 7 {
		t.Fatalf("expected real request 7, got %+v", out[0])
	}
	st := s.Stats()
	if st.Forwarded != 1 || st.Fakes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShaperEmitsFakeWhenNoMatch(t *testing.T) {
	s, m := chainShaper(t, 100)
	out := s.Tick(0)
	if len(out) != 1 || !out[0].Fake {
		t.Fatalf("expected one fake, got %v", out)
	}
	if got := m.FlatBank(m.Decode(out[0].Addr)); got != 0 {
		t.Fatalf("fake bank = %d, want prescribed bank 0", got)
	}
	if s.Stats().Fakes != 1 {
		t.Fatalf("fake not counted: %+v", s.Stats())
	}
}

func TestShaperBankMismatchYieldsFake(t *testing.T) {
	s, m := chainShaper(t, 100)
	// Pending request to bank 3, but the slot prescribes bank 0.
	req := mem.Request{ID: 9, Addr: m.AddrForBank(3, 0, 0), Kind: mem.Read, Domain: 1}
	mustEnqueue(t, s, req, 0)
	out := s.Tick(0)
	if len(out) != 1 || !out[0].Fake {
		t.Fatalf("expected fake for bank mismatch, got %v", out)
	}
	if s.QueueLen() != 1 {
		t.Fatal("mismatched request should stay queued")
	}
}

func TestShaperKindMismatchYieldsFake(t *testing.T) {
	s, m := chainShaper(t, 100)
	req := mem.Request{ID: 9, Addr: m.AddrForBank(0, 0, 0), Kind: mem.Write, Domain: 1}
	mustEnqueue(t, s, req, 0)
	out := s.Tick(0)
	if len(out) != 1 || !out[0].Fake || out[0].Kind != mem.Read {
		t.Fatalf("expected fake read for kind mismatch, got %v", out)
	}
}

func TestShaperBackpressure(t *testing.T) {
	s, m := chainShaper(t, 100)
	for i := 0; i < 8; i++ {
		if !mustEnqueue(t, s, mem.Request{ID: uint64(i), Addr: m.AddrForBank(1, uint64(i), 0), Domain: 1}, 0) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if !s.Full() {
		t.Fatal("queue should be full at 8 entries")
	}
	if mustEnqueue(t, s, mem.Request{ID: 99, Addr: 0, Domain: 1}, 0) {
		t.Fatal("enqueue accepted over capacity")
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Stats().Rejected)
	}
}

func TestShaperResponseDrivesDAGAndSwallowsFakes(t *testing.T) {
	s, _ := chainShaper(t, 50)
	out := s.Tick(0) // fake on bank 0
	if s.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", s.Outstanding())
	}
	deliver, err := s.OnResponse(mem.Response{ID: out[0].ID, Fake: true}, 30)
	if err != nil {
		t.Fatalf("response: %v", err)
	}
	if deliver {
		t.Fatal("fake response delivered to core")
	}
	if s.Outstanding() != 0 {
		t.Fatal("token not cleared")
	}
	// Next slot due at 30+50 = 80.
	if got := s.Tick(79); len(got) != 0 {
		t.Fatal("slot fired before weight elapsed")
	}
	if got := s.Tick(80); len(got) != 1 {
		t.Fatal("slot missing at 80")
	}
}

func TestShaperWrongDomainIsRoutingError(t *testing.T) {
	s, _ := chainShaper(t, 50)
	ok, err := s.Enqueue(mem.Request{ID: 1, Domain: 5}, 0)
	if ok {
		t.Fatal("wrong-domain request accepted")
	}
	var rerr *RoutingError
	if !errors.As(err, &rerr) {
		t.Fatalf("error = %v, want *RoutingError", err)
	}
	if rerr.Got != 5 || rerr.Want != 1 || rerr.ID != 1 {
		t.Fatalf("routing error fields = %+v", rerr)
	}
	if s.Stats().Enqueued != 0 {
		t.Fatal("misrouted request must not be accounted")
	}
}

func TestShaperUnknownResponseIsTypedError(t *testing.T) {
	s, _ := chainShaper(t, 50)
	deliver, err := s.OnResponse(mem.Response{ID: 12345}, 0)
	if deliver {
		t.Fatal("unknown response delivered")
	}
	var uerr *UnknownResponseError
	if !errors.As(err, &uerr) {
		t.Fatalf("error = %v, want *UnknownResponseError", err)
	}
	if uerr.ID != 12345 || uerr.Domain != 1 {
		t.Fatalf("unknown-response error fields = %+v", uerr)
	}
}

// emission is one externally observable emission event.
type emission struct {
	At   uint64
	Bank int
	Kind mem.Kind
}

// runShaped drives a shaper for cycles with the given victim request
// pattern (enqueue times and banks), returning the externally observable
// emission schedule. Completions are fed back after a fixed latency,
// mimicking an uncontended controller.
func runShaped(victimGaps []uint8, seed int64, cycles uint64) []emission {
	m := testMapper()
	d := rdag.MustPatternDriver(rdag.Template{Sequences: 2, Weight: 60, Banks: 8, WriteRatio: 0.25})
	s := New(1, d, m, 8, allocator(), seed)

	const latency = 40
	type inFlight struct {
		at   uint64
		resp mem.Response
	}
	var flights []inFlight
	var observed []emission

	nextVictim := uint64(0)
	vi := 0
	id := uint64(0)
	for now := uint64(0); now < cycles; now++ {
		// Victim produces a request at its own (secret-dependent) pace.
		if len(victimGaps) > 0 && now >= nextVictim && !s.Full() {
			gap := uint64(victimGaps[vi%len(victimGaps)]%100) + 1
			bank := int(victimGaps[vi%len(victimGaps)]) % 8
			id++
			s.Enqueue(mem.Request{ID: id, Addr: m.AddrForBank(bank, uint64(vi), 0), Kind: mem.Read, Domain: 1, Issue: now}, now)
			nextVictim = now + gap
			vi++
		}
		for _, r := range s.Tick(now) {
			observed = append(observed, emission{At: now, Bank: m.FlatBank(m.Decode(r.Addr)), Kind: r.Kind})
			flights = append(flights, inFlight{at: now + latency, resp: mem.Response{
				ID: r.ID, Addr: r.Addr, Kind: r.Kind, Domain: r.Domain, Fake: r.Fake, Completion: now + latency,
			}})
		}
		keep := flights[:0]
		for _, f := range flights {
			if f.at <= now {
				s.OnResponse(f.resp, now)
			} else {
				keep = append(keep, f)
			}
		}
		flights = keep
	}
	return observed
}

func TestShaperEmissionIndependentOfVictimPattern(t *testing.T) {
	// The core security property (§4.2): the (time, bank, kind) schedule
	// leaving the shaper must be identical for any two victim request
	// patterns, because only that schedule is observable via contention.
	base := runShaped(nil, 1, 5000)
	if len(base) == 0 {
		t.Fatal("no emissions observed")
	}
	f := func(gaps []uint8) bool {
		got := runShaped(gaps, 1, 5000)
		if len(got) != len(base) {
			return false
		}
		for i := range got {
			if got[i] != base[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatalf("emission schedule depends on victim pattern: %v", err)
	}
}

func TestShaperDelayAccounting(t *testing.T) {
	s, m := chainShaper(t, 100)
	req := mem.Request{ID: 1, Addr: m.AddrForBank(0, 0, 0), Kind: mem.Read, Domain: 1, Issue: 0}
	mustEnqueue(t, s, req, 0)
	// Slot fires at cycle 0 immediately; delay 0.
	s.Tick(0)
	if s.Stats().DelaySum != 0 {
		t.Fatalf("delay = %d, want 0", s.Stats().DelaySum)
	}
}

func TestShaperReset(t *testing.T) {
	s, m := chainShaper(t, 100)
	mustEnqueue(t, s, mem.Request{ID: 1, Addr: m.AddrForBank(0, 0, 0), Domain: 1}, 0)
	s.Tick(0)
	s.Reset()
	if s.QueueLen() != 0 || s.Outstanding() != 0 || s.Stats().Enqueued != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestShaperFakeAddressesDeterministic(t *testing.T) {
	a, _ := chainShaper(t, 10)
	b, _ := chainShaper(t, 10)
	ra := a.Tick(0)
	rb := b.Tick(0)
	if ra[0].Addr != rb[0].Addr {
		t.Fatal("same seed should give same fake address stream")
	}
}

// TestTickAllocatesNothing pins the shaper's emission path
// allocation-free once warmed: a real request forwarded or a fake built,
// recorded for its response, returned through Tick's reused slice and
// completed.
func TestTickAllocatesNothing(t *testing.T) {
	m := testMapper()
	d := rdag.MustPatternDriver(rdag.Template{Sequences: 4, Weight: 30, WriteRatio: 0.25, Banks: 8})
	s := New(1, d, m, 8, allocator(), 42)
	now, id := uint64(0), uint64(0)
	emit := func() {
		id++
		mustEnqueue(t, s, mem.Request{ID: id, Addr: m.AddrForBank(int(id%8), 0, 0), Kind: mem.Read, Domain: 1}, now)
		for emitted := 0; emitted == 0; now++ {
			out := s.Tick(now)
			for _, r := range out {
				if _, err := s.OnResponse(mem.Response{ID: r.ID, Fake: r.Fake, Domain: 1}, now); err != nil {
					t.Fatal(err)
				}
			}
			emitted = len(out)
		}
	}
	for i := 0; i < 64; i++ {
		emit()
	}
	if allocs := testing.AllocsPerRun(200, emit); allocs != 0 {
		t.Fatalf("a tick that emits allocates %v times", allocs)
	}
}
