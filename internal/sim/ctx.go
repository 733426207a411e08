package sim

import "context"

// ctxCheckInterval is how many cycles the context-aware run loops advance
// between context polls. Polling every tick would put a synchronized
// atomic load on the simulator's hot path; 4096 cycles bounds cancellation
// latency to a few microseconds of wall time while keeping the poll cost
// unmeasurable.
const ctxCheckInterval = 4096

// RunCheckedCtx is RunChecked with cooperative cancellation: the context is
// polled every ctxCheckInterval cycles and its error is returned as soon as
// it fires (use errors.Is with context.Canceled / context.DeadlineExceeded).
// The machine stops at a cycle boundary in a consistent state, so a caller
// may checkpoint it with SaveState and resume later.
func (s *System) RunCheckedCtx(ctx context.Context, cycles uint64) error {
	restore := s.armWatchdog()
	defer restore()
	for end := s.now + cycles; s.now < end; {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.run(min(ctxCheckInterval, end-s.now)); err != nil {
			return err
		}
	}
	return nil
}

// MeasureCheckedCtx is MeasureChecked with cooperative cancellation through
// both the warmup and the measurement window.
func (s *System) MeasureCheckedCtx(ctx context.Context, warmup, window uint64) (Result, error) {
	return s.measureWith(func(cycles uint64) error {
		return s.RunCheckedCtx(ctx, cycles)
	}, warmup, window)
}
