package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"dagguise/internal/config"
)

// ErrShardsIncomplete reports a merge over a manifest with unfinished or
// failed shards.
var ErrShardsIncomplete = errors.New("fleet: manifest has unfinished shards")

// SchemeVerdict is the per-scheme fold of the non-interference audit:
// whether any shard of the scheme observed a twin-run digest difference.
// Only shards that ran both twins count, so a scheme whose shards run one
// machine (a non-DAGguise two-core shard) has no verdict.
type SchemeVerdict struct {
	Scheme       string `json:"scheme"`
	Secure       bool   `json:"secure"`
	Shards       int    `json:"shards"`
	Interference bool   `json:"interference"`
}

// Totals aggregates the deterministic counters over every shard.
type Totals struct {
	Shards          int    `json:"shards"`
	Cycles          uint64 `json:"cycles"`
	Issued          uint64 `json:"issued"`
	Completed       uint64 `json:"completed"`
	Remote          uint64 `json:"remote"`
	Stalls          uint64 `json:"stalls"`
	ShaperForwarded uint64 `json:"shaper_forwarded"`
	ShaperFakes     uint64 `json:"shaper_fakes"`
	TapSamples      uint64 `json:"tap_samples"`
}

// Report is the merged outcome of a sweep. It contains only deterministic
// per-shard results (never the manifest's ops counters), shards sorted by
// name and verdicts sorted by scheme, so its encoding is byte-identical
// regardless of worker count, completion order or crash/resume history.
type Report struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Verdicts    []SchemeVerdict `json:"verdicts"`
	Totals      Totals          `json:"totals"`
	Shards      []ShardResult   `json:"shards"`
}

// Merge folds a completed manifest into the byte-stable report. Completion
// order does not matter; any shard that is not done is an error.
func Merge(m *Manifest) (*Report, error) {
	rep := &Report{Version: ManifestVersion, Fingerprint: m.Fingerprint}
	for i := range m.Records {
		rec := &m.Records[i]
		if rec.Status != StatusDone || rec.Result == nil {
			return nil, fmt.Errorf("%w: shard %s is %s (%s)",
				ErrShardsIncomplete, rec.Shard.Name, rec.Status, rec.Error)
		}
		rep.Shards = append(rep.Shards, *rec.Result)
	}
	sort.Slice(rep.Shards, func(i, j int) bool { return rep.Shards[i].Name < rep.Shards[j].Name })
	byScheme := make(map[string]*SchemeVerdict)
	for i := range rep.Shards {
		r := &rep.Shards[i]
		rep.Totals.Shards++
		rep.Totals.Cycles += r.Cycles
		rep.Totals.Issued += r.Counters.Issued
		rep.Totals.Completed += r.Counters.Completed
		rep.Totals.Remote += r.Counters.Remote
		rep.Totals.Stalls += r.Counters.Stalls
		rep.Totals.ShaperForwarded += r.Counters.ShaperForwarded
		rep.Totals.ShaperFakes += r.Counters.ShaperFakes
		rep.Totals.TapSamples += r.Counters.TapSamples
		if r.DigestB == "" {
			continue
		}
		v := byScheme[r.Scheme]
		if v == nil {
			scheme, err := config.ParseScheme(r.Scheme)
			if err != nil {
				return nil, err
			}
			v = &SchemeVerdict{Scheme: r.Scheme, Secure: scheme.Secure()}
			byScheme[r.Scheme] = v
		}
		v.Shards++
		v.Interference = v.Interference || r.Interference
	}
	for _, v := range byScheme {
		rep.Verdicts = append(rep.Verdicts, *v)
	}
	sort.Slice(rep.Verdicts, func(i, j int) bool { return rep.Verdicts[i].Scheme < rep.Verdicts[j].Scheme })
	return rep, nil
}

// Encode serializes the report deterministically (indented JSON plus a
// trailing newline — the bytes the fleet-soak CI job diffs).
func (r *Report) Encode() ([]byte, error) {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// Gate enforces the non-interference contract over the merged report:
// every twin shard must have recorded attacker-observable samples, every
// secure scheme must be clean on every shard, and every insecure scheme
// must have tripped somewhere (an empty tap, or a baseline that cannot
// leak, means the observable is too weak to certify anything).
func (r *Report) Gate() error {
	for _, sh := range r.Shards {
		if sh.DigestB != "" && sh.Counters.TapSamples == 0 {
			return fmt.Errorf("fleet: shard %s recorded no response samples; observable too weak", sh.Name)
		}
	}
	for _, v := range r.Verdicts {
		if v.Secure && v.Interference {
			return fmt.Errorf("fleet: secure scheme %s showed interference", v.Scheme)
		}
		if !v.Secure && !v.Interference {
			return fmt.Errorf("fleet: insecure scheme %s did not trip the audit; observable too weak", v.Scheme)
		}
	}
	return nil
}
