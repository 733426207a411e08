// Storage fault injection for the fleet's durable artifacts. Where the
// core of this package perturbs the simulated memory system and client.go
// perturbs the audit transport, an FSSchedule perturbs the filesystem the
// fleet coordinates through: torn writes that leave a partial file at the
// target path, injected EIO, stalled renames and delayed fsyncs. The same
// two properties carry over: schedules are pure functions of their seed
// (a storage-chaos failure replays exactly), and injection decisions are
// keyed on the durable-write operation index only — never on path names
// or payload contents — so the fault sequence a fleet process experiences
// is independent of what it happens to be writing.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dagguise/internal/rng"
)

// ErrInjectedIO is the error an injected write fault surfaces. Callers
// retry it with rng.BackoffDelay; it never reaches a report.
var ErrInjectedIO = errors.New("fault: injected storage error")

// FSKind enumerates the storage fault classes.
type FSKind int

const (
	// FSTornWrite leaves a truncated copy of the payload at the target
	// path (a non-atomic writer died mid-write) and fails the operation;
	// the reader side must quarantine the torn artifact.
	FSTornWrite FSKind = iota
	// FSWriteEIO fails the operation with ErrInjectedIO and no side
	// effect (a transient device error).
	FSWriteEIO
	// FSRenameStall delays the operation DelayMs milliseconds before the
	// rename commits (a congested or remounting filesystem).
	FSRenameStall
	// FSFsyncDelay delays the operation DelayMs milliseconds at fsync
	// time (a saturated write-back cache).
	FSFsyncDelay
)

var fsKindNames = map[FSKind]string{
	FSTornWrite:   "torn-write",
	FSWriteEIO:    "write-eio",
	FSRenameStall: "rename-stall",
	FSFsyncDelay:  "fsync-delay",
}

// String names the storage fault kind.
func (k FSKind) String() string {
	if n, ok := fsKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("fs-fault(%d)", int(k))
}

// FSEvent is one storage fault, bound to the Op-th durable-write
// operation of a process. DelayMs is the stall length for the delay
// kinds, unused otherwise.
type FSEvent struct {
	Kind    FSKind `json:"kind"`
	Op      int    `json:"op"`
	DelayMs int    `json:"delay_ms,omitempty"`
}

// FSSchedule is a reproducible set of storage faults. As with Schedule,
// the seed rides along for reporting only.
type FSSchedule struct {
	Seed   int64     `json:"seed"`
	Events []FSEvent `json:"events"`
}

// Validate rejects malformed storage schedules.
func (s FSSchedule) Validate() error {
	for i, e := range s.Events {
		if _, ok := fsKindNames[e.Kind]; !ok {
			return fmt.Errorf("fault: fs event %d has unknown kind %d", i, int(e.Kind))
		}
		if e.Op < 0 {
			return fmt.Errorf("fault: fs event %d (%s) targets negative op %d", i, e.Kind, e.Op)
		}
		if (e.Kind == FSRenameStall || e.Kind == FSFsyncDelay) && e.DelayMs < 1 {
			return fmt.Errorf("fault: fs event %d (%s) needs delay >= 1ms", i, e.Kind)
		}
	}
	return nil
}

// FSInjector hands out the faults for a process's durable-write
// operations in sequence. Unlike Injector it is stateful — it counts
// operations — so it is per-process, never shared; the mutex makes the
// counter safe for the pool's concurrent workers.
type FSInjector struct {
	mu   sync.Mutex
	next int
	byOp map[int][]FSEvent
}

// NewFSInjector validates the schedule and builds an injector over it.
func NewFSInjector(s FSSchedule) (*FSInjector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	in := &FSInjector{byOp: make(map[int][]FSEvent)}
	for _, e := range s.Events {
		in.byOp[e.Op] = append(in.byOp[e.Op], e)
	}
	for op := range in.byOp {
		evs := in.byOp[op]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Kind < evs[j].Kind })
	}
	return in, nil
}

// NextOp advances the operation counter and returns the faults scheduled
// for that operation (nil receiver and fault-free ops both return nil).
func (in *FSInjector) NextOp() []FSEvent {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	op := in.next
	in.next++
	return in.byOp[op]
}

// FSCampaign draws a randomized but fully seed-determined storage fault
// schedule over a process expected to perform about ops durable writes:
// calling it twice with equal arguments yields identical schedules.
func FSCampaign(seed int64, ops, events int) FSSchedule {
	rnd := rng.New(seed)
	if events <= 0 {
		events = 8
	}
	if ops < 1 {
		ops = 1
	}
	sched := FSSchedule{Seed: seed}
	for i := 0; i < events; i++ {
		e := FSEvent{Op: rnd.Intn(ops)}
		switch FSKind(rnd.Intn(4)) {
		case FSTornWrite:
			e.Kind = FSTornWrite
		case FSWriteEIO:
			e.Kind = FSWriteEIO
		case FSRenameStall:
			e.Kind = FSRenameStall
			e.DelayMs = 1 + rnd.Intn(20)
		default:
			e.Kind = FSFsyncDelay
			e.DelayMs = 1 + rnd.Intn(20)
		}
		sched.Events = append(sched.Events, e)
	}
	return sched
}
