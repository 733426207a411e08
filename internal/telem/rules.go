package telem

import (
	"sort"

	"dagguise/internal/obs"
)

// Straggler ranks one running shard against the fleet's median pace.
type Straggler struct {
	Shard     string
	Worker    string
	ElapsedMs int64
	// Ratio is elapsed over the median done-shard duration (0 when no
	// shard has finished yet).
	Ratio float64
}

// EvalOps evaluates obs.DefaultRules over the ops-plane series at wall
// time nowMs (unix milliseconds — inject a fixed clock in tests) and
// returns the alert edges plus the straggler ranking, slowest first.
// The series live in a store of their own (straggler/<shard>,
// worker_stall/<worker>, requeue_rate), so only the catalog's
// wall-clock rules can match here and none of them can reach the
// deterministic report. It builds a fresh TSDB and engine per call, so
// calling it repeatedly on successive collections (the dagtop refresh
// loop) never double-counts.
func (c *Collection) EvalOps(nowMs int64) ([]obs.Alert, []Straggler) {
	db := obs.NewTSDB(0)

	// Requeue-rate indicators, in global lifecycle order.
	i := uint64(0)
	for _, r := range c.lifecycle {
		switch r.Event {
		case EventClaim:
			db.Append("requeue_rate", i, 0)
			i++
		case EventRequeue:
			db.Append("requeue_rate", i, 1)
			i++
		}
	}

	// Straggler ratios for running shards against the median pace.
	p50 := c.medianDoneMs()
	var rank []Straggler
	for _, st := range c.Shards {
		if st.State != "claim" || st.ClaimWall <= 0 || nowMs < st.ClaimWall {
			continue
		}
		elapsed := nowMs - st.ClaimWall
		s := Straggler{Shard: st.Name, Worker: st.Worker, ElapsedMs: elapsed}
		if p50 > 0 {
			s.Ratio = float64(elapsed) / p50
		}
		db.Append("straggler/"+st.Name, uint64(nowMs), s.Ratio)
		rank = append(rank, s)
	}
	sort.Slice(rank, func(i, j int) bool {
		if rank[i].Ratio != rank[j].Ratio {
			return rank[i].Ratio > rank[j].Ratio
		}
		if rank[i].ElapsedMs != rank[j].ElapsedMs {
			return rank[i].ElapsedMs > rank[j].ElapsedMs
		}
		return rank[i].Shard < rank[j].Shard
	})

	// Heartbeat gaps for workers still holding work.
	for _, w := range c.Workers {
		if len(w.Running) == 0 || w.LastWall <= 0 || nowMs < w.LastWall {
			continue
		}
		db.Append("worker_stall/"+w.Name, uint64(nowMs), float64(nowMs-w.LastWall)/1000)
	}

	eng := obs.NewEngine(db, obs.DefaultRules())
	alerts := eng.Eval(uint64(nowMs))
	return alerts, rank
}

// medianDoneMs is the median wall duration of finished shards in
// milliseconds (0 when none have finished).
func (c *Collection) medianDoneMs() float64 {
	var durs []float64
	for _, st := range c.Shards {
		if st.State == "done" && st.EndWall >= st.ClaimWall && st.ClaimWall > 0 {
			durs = append(durs, float64(st.EndWall-st.ClaimWall))
		}
	}
	if len(durs) == 0 {
		return 0
	}
	sort.Float64s(durs)
	return durs[len(durs)/2]
}

// ETA estimates milliseconds until the campaign finishes, from the
// median done-shard duration, the remaining shard count and the worker
// pool size. ok is false until at least one shard has finished.
func (c *Collection) ETA() (ms int64, ok bool) {
	p50 := c.medianDoneMs()
	if p50 <= 0 {
		return 0, false
	}
	pending, running, _, _ := c.Counts()
	remaining := pending + running
	if remaining == 0 {
		return 0, true
	}
	workers := c.PoolWorkers
	if workers <= 0 {
		workers = 1
	}
	waves := (remaining + workers - 1) / workers
	return int64(float64(waves) * p50), true
}
