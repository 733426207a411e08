// Package camouflage implements the Camouflage baseline (Zhou et al.,
// HPCA'17): a memory traffic shaper that forces the *distribution* of
// inter-injection intervals to match a profiled target distribution, by
// delaying real requests and issuing fake ones.
//
// Camouflage is included as a comparison point, not as a secure defense:
// as §3.1 of the DAGguise paper shows (Figure 2), constraining only the
// distribution leaves the *ordering* of intervals input-dependent, and the
// scheme ignores bank information entirely (forwarded requests keep their
// original banks). Both channels remain observable to a fine-grained
// attacker, and the attack demonstration in internal/attack exploits them.
//
// This implementation draws each epoch's intervals from the target
// distribution as a pool sampled without replacement. When a real request
// is waiting, the shaper greedily picks the smallest adequate remaining
// interval (to limit the victim's slowdown); otherwise it picks a random
// one. Every epoch's emitted intervals exactly realise the target
// distribution, yet their order — and the banks of forwarded requests —
// depend on the victim's behaviour, reproducing the leak of Figure 2.
package camouflage

import (
	"fmt"
	"slices"

	"dagguise/internal/mem"
	"dagguise/internal/obs"
	"dagguise/internal/rng"
	"dagguise/internal/shaper"
)

// Distribution is an empirical distribution of inter-injection intervals
// in CPU cycles, typically obtained by profiling the victim offline.
type Distribution struct {
	Intervals []uint64
}

// Validate checks the distribution is usable.
func (d Distribution) Validate() error {
	if len(d.Intervals) == 0 {
		return fmt.Errorf("camouflage: empty interval distribution")
	}
	return nil
}

// Mean returns the average interval.
func (d Distribution) Mean() float64 {
	var sum uint64
	for _, v := range d.Intervals {
		sum += v
	}
	return float64(sum) / float64(len(d.Intervals))
}

// Stats aggregates shaper counters.
type Stats struct {
	Forwarded uint64
	Fakes     uint64
	Enqueued  uint64
	Rejected  uint64
}

// Shaper shapes one domain's traffic to the target interval distribution.
type Shaper struct {
	domain   mem.Domain
	dist     Distribution
	mapper   *mem.Mapper
	capacity int
	alloc    shaper.IDAlloc
	rng      *rng.Rand

	queue    []mem.Request
	emitted  [1]mem.Request // Tick's result, reused
	pool     []uint64       // remaining intervals of the current epoch
	lastEmit uint64
	nextAt   uint64
	started  bool
	stats    Stats

	// Observability (nil = off); measurement only.
	mx *obs.Registry
	tr *obs.Tracer

	rows    uint64
	columns int
	banks   int
}

// New builds a Camouflage shaper for the domain.
func New(domain mem.Domain, dist Distribution, mapper *mem.Mapper, capacity int, alloc shaper.IDAlloc, seed int64) (*Shaper, error) {
	if err := dist.Validate(); err != nil {
		return nil, err
	}
	if capacity <= 0 {
		capacity = 8
	}
	geo := mapper.Geometry()
	return &Shaper{
		domain:   domain,
		dist:     dist,
		mapper:   mapper,
		capacity: capacity,
		alloc:    alloc,
		rng:      rng.New(seed),
		rows:     1 << 14,
		columns:  geo.RowBytes / geo.LineBytes,
		banks:    mapper.BankCount(),
	}, nil
}

// Domain returns the protected domain.
func (s *Shaper) Domain() mem.Domain { return s.domain }

// Observe attaches an observability registry and tracer (either may be
// nil). Measurement only: shaping decisions never consult them.
func (s *Shaper) Observe(mx *obs.Registry, tr *obs.Tracer) {
	s.mx = mx
	s.tr = tr
}

// Full reports whether the private queue is at capacity.
func (s *Shaper) Full() bool { return len(s.queue) >= s.capacity }

// QueueLen returns the private queue occupancy.
func (s *Shaper) QueueLen() int { return len(s.queue) }

// Enqueue accepts a real request from the domain. It returns (false, nil)
// when the private queue is full (ordinary backpressure) and a
// *shaper.RoutingError when the request belongs to another domain.
func (s *Shaper) Enqueue(req mem.Request, now uint64) (bool, error) {
	if req.Domain != s.domain {
		return false, &shaper.RoutingError{Got: req.Domain, Want: s.domain, ID: req.ID}
	}
	if len(s.queue) >= s.capacity {
		s.stats.Rejected++
		s.mx.Inc(obs.CtrShaperRejected, int(s.domain))
		return false, nil
	}
	s.queue = append(s.queue, req)
	s.stats.Enqueued++
	return true, nil
}

// refill starts a new epoch with a fresh copy of the distribution.
func (s *Shaper) refill() {
	s.pool = append(s.pool[:0], s.dist.Intervals...)
	slices.Sort(s.pool)
}

// pickInterval removes and returns the next interval: the smallest one
// when a request is pending (input-dependent — the leak), or a uniformly
// random one otherwise.
func (s *Shaper) pickInterval(havePending bool) uint64 {
	if len(s.pool) == 0 {
		s.refill()
	}
	var idx int
	if havePending {
		idx = 0 // pool is sorted ascending
	} else {
		idx = s.rng.Intn(len(s.pool))
	}
	v := s.pool[idx]
	s.pool = append(s.pool[:idx], s.pool[idx+1:]...)
	return v
}

// Tick returns the requests to inject this cycle: at most one, in a slice
// that is the shaper's own and stays valid until the next Tick. A tick
// that injects nothing returns nil.
func (s *Shaper) Tick(now uint64) []mem.Request {
	s.mx.Observe(obs.HistShaperQueue, int(s.domain), uint64(len(s.queue)))
	if !s.started {
		s.started = true
		s.nextAt = now + s.pickInterval(len(s.queue) > 0)
		return nil
	}
	if now < s.nextAt {
		return nil
	}
	var req mem.Request
	if len(s.queue) > 0 {
		req = s.queue[0]
		s.queue = s.queue[:copy(s.queue, s.queue[1:])]
		s.stats.Forwarded++
		s.mx.Inc(obs.CtrShaperForwarded, int(s.domain))
		s.tr.Emit(obs.Event{Cycle: now, Comp: obs.CompShaper, Kind: obs.EvReal, Index: int32(s.domain), Domain: int32(s.domain)})
	} else {
		req = mem.Request{
			ID:     s.alloc(),
			Addr:   s.mapper.AddrForBank(s.rng.Intn(s.banks), uint64(s.rng.Int63n(int64(s.rows))), s.rng.Intn(s.columns)),
			Kind:   mem.Read,
			Domain: s.domain,
			Fake:   true,
		}
		s.stats.Fakes++
		s.mx.Inc(obs.CtrShaperFakes, int(s.domain))
		s.tr.Emit(obs.Event{Cycle: now, Comp: obs.CompShaper, Kind: obs.EvFake, Index: int32(s.domain), Domain: int32(s.domain)})
	}
	req.Issue = now
	s.lastEmit = now
	s.nextAt = now + s.pickInterval(len(s.queue) > 0)
	s.emitted[0] = req
	return s.emitted[:]
}

// NextEmit returns the earliest cycle at or after now at which Tick does
// more than sample the private queue's occupancy: now until the first
// Tick has drawn an interval, then the next injection cycle. SkipTicks
// replays the ticks before it.
func (s *Shaper) NextEmit(now uint64) uint64 {
	if !s.started {
		return now
	}
	return s.nextAt
}

// SkipTicks replays k ticks before NextEmit at once.
func (s *Shaper) SkipTicks(k uint64) {
	s.mx.ObserveN(obs.HistShaperQueue, int(s.domain), uint64(len(s.queue)), k)
}

// OnResponse reports whether the response should be delivered to the core.
// Camouflage tracks nothing across responses.
func (s *Shaper) OnResponse(resp mem.Response, now uint64) bool {
	return !resp.Fake
}

// Stats returns cumulative counters.
func (s *Shaper) Stats() Stats { return s.stats }

// Reset clears the shaper state.
func (s *Shaper) Reset() {
	s.queue = s.queue[:0]
	s.pool = s.pool[:0]
	s.started = false
	s.nextAt = 0
	s.stats = Stats{}
}
