package telem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"sort"

	"dagguise/internal/obs"
)

// Report is the deterministic campaign telemetry artifact: the merged
// logical-cycle series, the fleet alert edges over them, the canonical
// stitched span set and the digest of the stitched Perfetto trace.
// Every field is a pure function of the sweep, so Encode is
// byte-identical whether the campaign ran on one worker, on K workers,
// or on K workers SIGKILL'd mid-stream and resumed — the same invariant
// the fleet report pins for results.
type Report struct {
	Version     int                 `json:"version"`
	Fingerprint string              `json:"fingerprint"`
	Series      []obs.TSSeriesState `json:"series"`
	Alerts      []obs.Alert         `json:"alerts"`
	Spans       []Span              `json:"spans"`
	TraceDigest string              `json:"trace_digest"`
}

// Report folds the collection's deterministic plane into a Report, with
// the alert edges of DetAlerts.
func (c *Collection) Report() (*Report, error) {
	r := &Report{Version: Version, Fingerprint: c.Fingerprint, Spans: c.Spans, Alerts: c.DetAlerts()}
	if r.Spans == nil {
		r.Spans = []Span{}
	}

	st := c.DB.SaveState()
	if st != nil {
		r.Series = st.Series
	}
	if r.Series == nil {
		r.Series = []obs.TSSeriesState{}
	}

	if r.Alerts == nil {
		r.Alerts = []obs.Alert{}
	}

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	r.TraceDigest = hex.EncodeToString(sum[:])
	return r, nil
}

// DetAlerts evaluates obs.DefaultRules over the merged deterministic
// series and returns the alert edges in sequence order. There is one
// evaluation, at the newest logical timestamp in the store: the engine
// sees the fully merged store, so the edge sequence cannot depend on
// worker count or interleaving. Report and the dagtop console both use
// it. A fleet sweep's store matches only fleet-leak-budget-burn (on the
// leak_rate/<scheme> rollup); a mirrored dagauditd stream adds the
// daemon's leak_burn, queue_sat and retry_rate series and their rules.
func (c *Collection) DetAlerts() []obs.Alert {
	var maxT uint64
	for _, name := range c.DB.Names() {
		for _, p := range c.DB.Series(name) {
			maxT = max(maxT, p.T)
		}
	}
	eng := obs.NewEngine(c.DB, obs.DefaultRules())
	eng.Eval(maxT)
	alerts := eng.History()
	sort.SliceStable(alerts, func(i, j int) bool { return alerts[i].Seq < alerts[j].Seq })
	return alerts
}

// Encode renders the report as stable indented JSON with a trailing
// newline (the byte-diffable artifact the telem-soak CI job compares).
func (r *Report) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteTrace stitches the canonical span set from every worker into one
// Chrome/Perfetto trace: each shard gets its own runner lane (indexed
// by sorted shard name, so lane assignment is worker-independent), and
// a root span named sweep:<fingerprint-prefix> brackets the whole
// campaign on the system lane. Output bytes are deterministic.
func (c *Collection) WriteTrace(w io.Writer) error {
	lane := make(map[string]int32)
	for _, sp := range c.Spans {
		if _, ok := lane[sp.Shard]; !ok {
			lane[sp.Shard] = 0
		}
	}
	names := make([]string, 0, len(lane))
	for name := range lane {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		lane[name] = int32(i)
	}

	// B/E event pairs per span. Perfetto nests same-lane B/E events by
	// order, so within one (lane, cycle) the order must be: ends before
	// begins; simultaneous begins outer-first (larger End opens first);
	// simultaneous ends inner-first (larger Start closes first).
	type traceEv struct {
		cycle uint64
		end   bool
		span  Span
		id    uint64
	}
	var evs []traceEv
	var maxEnd uint64
	for i, sp := range c.Spans {
		id := uint64(i) + 2 // id 1 is the root span
		evs = append(evs, traceEv{cycle: sp.Start, span: sp, id: id})
		evs = append(evs, traceEv{cycle: sp.End, end: true, span: sp, id: id})
		if sp.End > maxEnd {
			maxEnd = sp.End
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.cycle != b.cycle {
			return a.cycle < b.cycle
		}
		if a.end != b.end {
			return a.end // ends first
		}
		if a.end {
			if a.span.Start != b.span.Start {
				return a.span.Start > b.span.Start // inner closes first
			}
		} else {
			if a.span.End != b.span.End {
				return a.span.End > b.span.End // outer opens first
			}
		}
		if a.span.Shard != b.span.Shard {
			return a.span.Shard < b.span.Shard
		}
		return a.span.Name < b.span.Name
	})

	fp := c.Fingerprint
	if len(fp) > 12 {
		fp = fp[:12]
	}
	events := make([]obs.Event, 0, len(evs)+2)
	events = append(events, obs.Event{
		Cycle: 0, Name: "sweep:" + fp, Comp: obs.CompSystem, Kind: obs.EvSpanBegin, Span: 1,
	})
	for _, ev := range evs {
		kind := obs.EvSpanBegin
		if ev.end {
			kind = obs.EvSpanEnd
		}
		events = append(events, obs.Event{
			Cycle:  ev.cycle,
			Name:   ev.span.Name,
			Comp:   obs.CompRunner,
			Kind:   kind,
			Span:   ev.id,
			Parent: 1,
			Index:  lane[ev.span.Shard],
		})
	}
	events = append(events, obs.Event{
		Cycle: maxEnd, Name: "sweep:" + fp, Comp: obs.CompSystem, Kind: obs.EvSpanEnd, Span: 1,
	})
	return obs.WriteChromeTrace(w, events)
}
