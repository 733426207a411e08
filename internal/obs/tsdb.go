package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Point is one sample of a time series. T is a deterministic logical
// time axis — simulated cycles in the simulator, accepted-observation
// counts in the audit service — never wall clock, so stored series (and
// everything derived from them, like alert sequences) are reproducible
// run to run and survive checkpoint/restore bit-identically.
type Point struct {
	T uint64  `json:"t"`
	V float64 `json:"v"`
}

// TSDB is a bounded in-process time-series store: a named set of ring
// buffers of Points. Appends past the per-series capacity overwrite the
// oldest sample, so memory is O(series x cap) regardless of run length.
// Safe for concurrent use; nil receivers are no-ops.
type TSDB struct {
	mu     sync.Mutex
	cap    int
	series map[string]*tsRing
}

type tsRing struct {
	pts     []Point
	next    int
	wrapped bool
}

// DefaultTSDBCap is the default per-series retention (points).
const DefaultTSDBCap = 1024

// NewTSDB builds a store retaining at most capPerSeries points per
// series (DefaultTSDBCap when <= 0).
func NewTSDB(capPerSeries int) *TSDB {
	if capPerSeries <= 0 {
		capPerSeries = DefaultTSDBCap
	}
	return &TSDB{cap: capPerSeries, series: make(map[string]*tsRing)}
}

// Append records (t, v) into the named series, creating it on first
// use. No-op on nil.
//
// Contract: Append preserves insertion order verbatim. Points are
// retained exactly as given — an out-of-order timestamp is NOT
// re-sorted into place, and duplicate timestamps are all kept as
// distinct points. Window/Last therefore mean "most recently appended",
// not "largest T". dagauditd keeps every series on one axis in order by
// construction (each shard series is written by its one shard goroutine,
// each tenant series in window order under the tenant lock). A producer
// that merges several sources into one series must canonicalize first —
// sort by (series, T) and collapse duplicate timestamps — before
// appending, or derived values (burn rates, last-point thresholds)
// silently depend on arrival order. Pinned by
// TestTSDBAppendOrderContract.
func (db *TSDB) Append(name string, t uint64, v float64) {
	if db == nil {
		return
	}
	db.mu.Lock()
	r := db.series[name]
	if r == nil {
		r = &tsRing{pts: make([]Point, 0, db.cap)}
		db.series[name] = r
	}
	p := Point{T: t, V: v}
	if len(r.pts) < cap(r.pts) {
		r.pts = append(r.pts, p)
	} else {
		r.pts[r.next] = p
		r.next++
		if r.next == cap(r.pts) {
			r.next = 0
		}
		r.wrapped = true
	}
	db.mu.Unlock()
}

// points returns the retained points oldest-first. Caller holds db.mu.
func (r *tsRing) points() []Point {
	out := make([]Point, 0, len(r.pts))
	if r.wrapped {
		out = append(out, r.pts[r.next:]...)
		out = append(out, r.pts[:r.next]...)
	} else {
		out = append(out, r.pts...)
	}
	return out
}

// Series returns the retained points of name, oldest first (nil when
// the series does not exist).
func (db *TSDB) Series(name string) []Point {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	r := db.series[name]
	if r == nil {
		return nil
	}
	return r.points()
}

// Last returns the most recent point of name.
func (db *TSDB) Last(name string) (Point, bool) {
	if db == nil {
		return Point{}, false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	r := db.series[name]
	if r == nil || len(r.pts) == 0 {
		return Point{}, false
	}
	i := r.next - 1
	if i < 0 {
		i = len(r.pts) - 1
	}
	if !r.wrapped {
		i = len(r.pts) - 1
	}
	return r.pts[i], true
}

// Window returns the most recent n points of name, oldest first.
func (db *TSDB) Window(name string, n int) []Point {
	pts := db.Series(name)
	if len(pts) > n {
		pts = pts[len(pts)-n:]
	}
	return pts
}

// Names returns all series names, sorted.
func (db *TSDB) Names() []string {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.series))
	for n := range db.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of retained points of name.
func (db *TSDB) Len(name string) int {
	if db == nil {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	r := db.series[name]
	if r == nil {
		return 0
	}
	return len(r.pts)
}

// TSDBState is the serializable state of a TSDB: series sorted by name,
// points oldest-first, so the encoding is deterministic.
type TSDBState struct {
	Cap    int             `json:"cap"`
	Series []TSSeriesState `json:"series,omitempty"`
}

// TSSeriesState is one series of a TSDBState.
type TSSeriesState struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// SaveState captures the store for a checkpoint. Nil receiver returns
// nil.
func (db *TSDB) SaveState() *TSDBState {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	st := &TSDBState{Cap: db.cap}
	names := make([]string, 0, len(db.series))
	for n := range db.series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st.Series = append(st.Series, TSSeriesState{Name: n, Points: db.series[n].points()})
	}
	return st
}

// RestoreState rebuilds the store from a checkpoint, replacing all
// current series. A nil state clears the store.
func (db *TSDB) RestoreState(st *TSDBState) error {
	if db == nil {
		if st == nil {
			return nil
		}
		return fmt.Errorf("obs: tsdb state restore into a nil store")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if st == nil {
		db.series = make(map[string]*tsRing)
		return nil
	}
	if st.Cap > 0 {
		db.cap = st.Cap
	}
	series := make(map[string]*tsRing, len(st.Series))
	for _, s := range st.Series {
		if s.Name == "" {
			return fmt.Errorf("obs: tsdb state has an unnamed series")
		}
		if _, dup := series[s.Name]; dup {
			return fmt.Errorf("obs: tsdb state has duplicate series %q", s.Name)
		}
		pts := s.Points
		if len(pts) > db.cap {
			pts = pts[len(pts)-db.cap:]
		}
		r := &tsRing{pts: make([]Point, 0, db.cap)}
		r.pts = append(r.pts, pts...)
		series[s.Name] = r
	}
	db.series = series
	return nil
}
