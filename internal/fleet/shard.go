package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"dagguise/internal/ckpt"
	"dagguise/internal/config"
	"dagguise/internal/fault"
	"dagguise/internal/sim"
)

// ShardResult is the deterministic outcome of one shard: the twin-run
// digests, the non-interference verdict, and the aggregate counters of the
// secret-A run. A shard that runs no secret-B twin (a non-DAGguise
// two-core shard) leaves DigestB empty and reports no interference. Every
// field is a pure function of the shard descriptor and the sweep config —
// never of worker count, retries or resume history — which is what makes
// the merged report byte-stable.
type ShardResult struct {
	Name         string              `json:"name"`
	Scheme       string              `json:"scheme"`
	Seed         int64               `json:"seed"`
	ChanLo       int                 `json:"chan_lo"`
	ChanHi       int                 `json:"chan_hi"`
	Cycles       uint64              `json:"cycles"`
	DigestA      string              `json:"digest_a"`
	DigestB      string              `json:"digest_b,omitempty"`
	Interference bool                `json:"interference"`
	Counters     sim.ClusterCounters `json:"counters"`
	// FaultEvents is the size of the shard's derived fault campaign
	// (absent on clean sweeps, keeping their reports byte-identical to
	// pre-campaign builds). Like every other field it is a pure function
	// of the shard descriptor and sweep config.
	FaultEvents int `json:"fault_events,omitempty"`
}

// ShardOptions configures one shard execution.
type ShardOptions struct {
	// Dir holds the shard's checkpoint frame; empty disables checkpoints.
	Dir string
	// Every is the checkpoint interval in simulated cycles (0 = only at
	// the natural chunk boundary, i.e. one chunk).
	Every uint64
	// SecretA and SecretB are the twin-run secrets.
	SecretA, SecretB int
	// Faults, when non-empty, is the shard's fault campaign, attached to
	// both twins (fault decisions are secret-independent, so the
	// non-interference verdict carries over to the faulty machine).
	Faults fault.Schedule
	// SaveFrame and LoadFrame override the checkpoint IO: the pool's
	// LoadFrame quarantines a corrupt checkpoint to *.corrupt and starts
	// the shard over, and a caller can wrap SaveFrame to time or count
	// writes. Nil selects ckpt.SaveFrame / ckpt.LoadFrame.
	SaveFrame func(path string, payload []byte) error
	LoadFrame func(path string) ([]byte, error)
	// OnCheckpoint, if set, is called after every durable checkpoint.
	OnCheckpoint func()
	// OnResume, if set, is called when a checkpoint frame was restored.
	OnResume func()
	// OnChunk, if set, is called after every simulated chunk with the
	// chunk's cycle bounds and the secret-A twin's counters, BEFORE the
	// chunk's checkpoint is cut and OnCheckpoint runs. A caller timing
	// both hooks can therefore split each chunk's simulation time from
	// its checkpoint time.
	OnChunk func(lo, hi uint64, counters sim.ClusterCounters)
}

// pairState is the checkpoint payload: both twins, cut at the same cycle
// (B is absent when the shard runs no secret-B twin).
type pairState struct {
	A *sim.SystemState `json:"a"`
	B *sim.SystemState `json:"b,omitempty"`
}

// CheckpointName returns the checkpoint file for a shard inside dir.
func CheckpointName(dir, shard string) string {
	return filepath.Join(dir, shard+".ckpt")
}

// RunShard executes one shard of a cluster sweep over base: twin clusters
// over the shard's channel slice, advanced in checkpointed chunks,
// digested into a ShardResult. A context cancellation returns an error
// matching ctx.Err() (errors.Is) with the last checkpoint already
// durable, whether it fires between chunks or inside one; rerunning
// the same shard resumes from it and produces the identical result. A
// simulation invariant violation returns the twin's *sim.SimError; a
// checkpoint this build cannot fully read returns an error wrapping
// ckpt.ErrCorrupt.
func RunShard(ctx context.Context, base config.MultiChannelConfig, sh Shard, opt ShardOptions) (*ShardResult, error) {
	build, err := clusterMachine(base, sh)
	if err != nil {
		return nil, err
	}
	return runTwins(ctx, sh, opt, build, true)
}

// clusterMachine returns the constructor of a cluster shard's twins.
func clusterMachine(base config.MultiChannelConfig, sh Shard) (func(secret int) (*sim.System, error), error) {
	scheme, err := config.ParseScheme(sh.Scheme)
	if err != nil {
		return nil, err
	}
	cfg := base
	cfg.Scheme = scheme
	return func(secret int) (*sim.System, error) {
		return sim.NewCluster(cfg, sh.ChanLo, sh.ChanHi, sh.Seed, secret)
	}, nil
}

// runTwins is the chunk loop every shard runs, whatever its machine: build
// the secret-A twin (and the secret-B twin when twins is set), attach the
// shard's faults, resume from the shard's checkpoint, then advance all
// twins chunk by chunk, checkpointing between chunks, and digest them.
func runTwins(ctx context.Context, sh Shard, opt ShardOptions, build func(secret int) (*sim.System, error), twins bool) (*ShardResult, error) {
	secrets := []int{opt.SecretA}
	if twins {
		secrets = append(secrets, opt.SecretB)
	}
	var machines []*sim.System
	for _, secret := range secrets {
		twin, err := build(secret)
		if err != nil {
			return nil, err
		}
		if len(opt.Faults.Events) > 0 {
			if err := twin.AttachFaults(opt.Faults); err != nil {
				return nil, fmt.Errorf("fleet: shard %s faults: %w", sh.Name, err)
			}
		}
		machines = append(machines, twin)
	}
	a := machines[0]
	loadFrame := opt.LoadFrame
	if loadFrame == nil {
		loadFrame = ckpt.LoadFrame
	}
	ckptPath := ""
	if opt.Dir != "" {
		ckptPath = CheckpointName(opt.Dir, sh.Name)
		if blob, err := loadFrame(ckptPath); err == nil {
			var pair pairState
			if err := ckpt.DecodeStrict(blob, &pair); err != nil {
				return nil, fmt.Errorf("fleet: shard %s checkpoint: %w", sh.Name, err)
			}
			if err := a.RestoreState(pair.A); err != nil {
				return nil, fmt.Errorf("fleet: shard %s twin A: %w", sh.Name, err)
			}
			if twins {
				if err := machines[1].RestoreState(pair.B); err != nil {
					return nil, fmt.Errorf("fleet: shard %s twin B: %w", sh.Name, err)
				}
			}
			if opt.OnResume != nil {
				opt.OnResume()
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("fleet: shard %s checkpoint: %w", sh.Name, err)
		}
	}
	every := opt.Every
	if every == 0 || every > sh.Cycles {
		every = sh.Cycles
	}
	for a.Now() < sh.Cycles {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := every
		if rem := sh.Cycles - a.Now(); chunk > rem {
			chunk = rem
		}
		lo := a.Now()
		// Run arms no watchdog of its own: a cluster runs without one (a
		// fault campaign may legitimately stall a channel for longer than
		// any budget), while a two-core machine carries its own from
		// construction, with its progress marks in the checkpointed state.
		for _, twin := range machines {
			if err := twin.Run(ctx, chunk); err != nil {
				return nil, fmt.Errorf("fleet: shard %s: %w", sh.Name, err)
			}
		}
		if opt.OnChunk != nil {
			opt.OnChunk(lo, a.Now(), a.Counters())
		}
		if ckptPath != "" && a.Now() < sh.Cycles {
			if err := saveCheckpoint(ckptPath, machines, opt.SaveFrame); err != nil {
				return nil, err
			}
			if opt.OnCheckpoint != nil {
				opt.OnCheckpoint()
			}
		}
	}
	res := &ShardResult{
		Name:   sh.Name,
		Scheme: sh.Scheme,
		Seed:   sh.Seed,
		ChanLo: sh.ChanLo, ChanHi: sh.ChanHi,
		Cycles:      sh.Cycles,
		DigestA:     a.AuditDigest(),
		Counters:    a.Counters(),
		FaultEvents: len(opt.Faults.Events),
	}
	if twins {
		res.DigestB = machines[1].AuditDigest()
		res.Interference = res.DigestA != res.DigestB
	}
	return res, nil
}

// saveCheckpoint cuts a durable paired snapshot of the twins.
func saveCheckpoint(path string, twins []*sim.System, save func(string, []byte) error) error {
	var st [2]*sim.SystemState
	for i, twin := range twins {
		var err error
		if st[i], err = twin.SaveState(); err != nil {
			return err
		}
	}
	blob, err := json.Marshal(pairState{A: st[0], B: st[1]})
	if err != nil {
		return err
	}
	if save == nil {
		save = ckpt.SaveFrame
	}
	return save(path, blob)
}
