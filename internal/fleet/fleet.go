// Package fleet is the repository's campaign supervisor: it fans a
// non-interference sweep out over a worker pool with a fsync'd work-queue
// manifest, retries with deterministic backoff, per-shard deterministic
// checkpoints and a deterministic merge, so one invocation saturates every
// core and a SIGKILL'd or SIGTERM'd sweep resumes to the byte.
//
// The unit of work is the shard. On the default machine it is one
// (scheme, seed, channel-slice) cell of a multi-channel, many-tenant
// sweep, executed as a twin pair of sim.NewCluster machines whose
// protected tenants encode two different secrets. A sweep carrying a
// TwoCore description instead runs dagchaos's two-core fault campaign:
// one shard per (scheme, seed). A shard's result is a pure function of its
// descriptor — worker count, completion order, retries and crash/resume
// cycles can change nothing in the merged report.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dagguise/internal/config"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
	"dagguise/internal/sim"
)

// Shard is one work-queue entry: a (scheme, seed, channel-slice) cell. A
// two-core shard has no channel slice; ChanLo and ChanHi stay zero.
type Shard struct {
	Name   string `json:"name"`
	Scheme string `json:"scheme"`
	Seed   int64  `json:"seed"`
	ChanLo int    `json:"chan_lo"`
	ChanHi int    `json:"chan_hi"`
	Cycles uint64 `json:"cycles"`
}

// Sweep describes a whole campaign: the cross product of schemes, seeds
// and channel slices over one multi-channel machine, or of schemes and
// seeds over the two-core machine when TwoCore is set.
type Sweep struct {
	// Schemes are evaluation scheme names (config.ParseScheme); the
	// Config's own Scheme field is overridden per shard.
	Schemes []string `json:"schemes"`
	// Seeds are the base seeds; every tenant and shaper stream of a shard
	// is derived from its shard's seed via rng.Derive.
	Seeds []int64 `json:"seeds"`
	// Cycles is the simulated length of every shard.
	Cycles uint64 `json:"cycles"`
	// SliceChannels is the number of channels per shard slice; the last
	// slice takes the remainder. Zero puts all channels in one shard.
	SliceChannels int `json:"slice_channels"`
	// SecretA and SecretB are the twin-run secrets the protected tenants
	// encode; the non-interference verdict compares their digests.
	SecretA int `json:"secret_a"`
	SecretB int `json:"secret_b"`
	// FaultEvents, when positive, turns the sweep into a fault campaign:
	// every shard runs under a fault.Schedule of this many events, derived
	// deterministically from the shard (see ShardFaultSchedule). Both
	// twins of a shard share the schedule, so the non-interference verdict
	// extends to the faulty machine. Zero (the omitted default) keeps the
	// sweep clean — and its fingerprint identical to pre-fault-campaign
	// builds.
	FaultEvents int `json:"fault_events,omitempty"`
	// Config is the multi-channel machine; its Scheme field is ignored.
	// A two-core sweep leaves it zero.
	Config config.MultiChannelConfig `json:"config"`
	// TwoCore, when set, replaces the multi-channel machine with the
	// two-core fault-campaign machine. It is omitted from a cluster
	// sweep's JSON, so cluster fingerprints do not depend on it.
	TwoCore *TwoCore `json:"two_core,omitempty"`
}

// DefaultSweep returns a two-scheme (insecure vs DAGguise) sweep over the
// default multi-channel machine, the shape the CI gate runs.
func DefaultSweep(channels, domains int, seeds []int64, cycles uint64) Sweep {
	return Sweep{
		Schemes:       []string{config.Insecure.String(), config.DAGguise.String()},
		Seeds:         seeds,
		Cycles:        cycles,
		SliceChannels: 1,
		SecretA:       11,
		SecretB:       12,
		Config:        config.DefaultMultiChannel(channels, domains, config.DAGguise),
	}
}

// Validate checks the sweep.
func (s Sweep) Validate() error {
	if len(s.Schemes) == 0 {
		return fmt.Errorf("fleet: sweep has no schemes")
	}
	for _, name := range s.Schemes {
		if _, err := config.ParseScheme(name); err != nil {
			return err
		}
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("fleet: sweep has no seeds")
	}
	if s.Cycles == 0 {
		return fmt.Errorf("fleet: sweep has zero cycles")
	}
	if s.SliceChannels < 0 {
		return fmt.Errorf("fleet: negative slice width %d", s.SliceChannels)
	}
	if s.SecretA == s.SecretB {
		return fmt.Errorf("fleet: twin secrets must differ, both are %d", s.SecretA)
	}
	if s.FaultEvents < 0 {
		return fmt.Errorf("fleet: negative fault event count %d", s.FaultEvents)
	}
	if s.TwoCore != nil {
		return s.TwoCore.validate()
	}
	cfg := s.Config
	for _, name := range s.Schemes {
		scheme, _ := config.ParseScheme(name)
		cfg.Scheme = scheme
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("fleet: sweep config under scheme %s: %w", name, err)
		}
	}
	return nil
}

// Shards expands the sweep into its ordered shard list: schemes in sweep
// order, seeds in sweep order, channel slices low to high. The order is
// part of the manifest contract — workers claim lowest-index first.
func (s Sweep) Shards() ([]Shard, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	width := s.SliceChannels
	if width == 0 || width > s.Config.Channels {
		width = s.Config.Channels
	}
	var out []Shard
	for _, scheme := range s.Schemes {
		for _, seed := range s.Seeds {
			if s.TwoCore != nil {
				out = append(out, Shard{Name: fmt.Sprintf("%s-seed%d", scheme, seed), Scheme: scheme, Seed: seed, Cycles: s.Cycles})
				continue
			}
			for lo := 0; lo < s.Config.Channels; lo += width {
				hi := lo + width
				if hi > s.Config.Channels {
					hi = s.Config.Channels
				}
				out = append(out, Shard{
					Name:   fmt.Sprintf("%s-seed%d-ch%02d-%02d", scheme, seed, lo, hi),
					Scheme: scheme,
					Seed:   seed,
					ChanLo: lo,
					ChanHi: hi,
					Cycles: s.Cycles,
				})
			}
		}
	}
	return out, nil
}

// ShardFaultSchedule derives the fault campaign for one shard of the
// sweep: the seed is the first eight bytes of SHA-256(fingerprint |
// shard name), so the schedule is a pure function of the sweep spec and
// the shard — any fleet process (and any resume) derives the identical
// faults, and a campaign failure replays from the sweep alone. Only the
// protected domains are eligible for domain-scoped faults; the horizon
// is the shard's cycle budget. A two-core shard's schedule is keyed on
// its seed alone (see TwoCore), so one cell replays on its own.
func (s Sweep) ShardFaultSchedule(fingerprint string, sh Shard) fault.Schedule {
	if s.FaultEvents <= 0 {
		return fault.Schedule{}
	}
	if s.TwoCore != nil {
		return s.TwoCore.faultSchedule(sh, s.FaultEvents)
	}
	sum := sha256.Sum256([]byte(fingerprint + "|" + sh.Name))
	seed := int64(binary.LittleEndian.Uint64(sum[:8]) >> 1)
	var doms []mem.Domain
	for i := 0; i < s.Config.Protected; i++ {
		doms = append(doms, mem.Domain(i+1))
	}
	return fault.Campaign(seed, fault.CampaignConfig{
		Horizon:  sh.Cycles,
		Domains:  doms,
		MaxStorm: sh.Cycles/32 + 1,
		Events:   s.FaultEvents,
	})
}

// Fingerprint hashes the sweep specification. A manifest records it so a
// resume against a changed sweep is rejected instead of silently merging
// incompatible shards.
func (s Sweep) Fingerprint() (string, error) {
	blob, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// machine returns the constructor of one twin of the shard's machine, by
// secret, and whether the shard runs the secret-B twin.
func (s Sweep) machine(sh Shard) (func(secret int) (*sim.System, error), bool, error) {
	if s.TwoCore != nil {
		return s.TwoCore.machine(sh)
	}
	build, err := clusterMachine(s.Config, sh)
	return build, true, err
}
