package rng

import "time"

// BackoffDelay computes the supervised-retry delay for the given attempt:
// 2^attempt * base, capped at max before jitter is applied, with a
// deterministic jitter drawn from (seed, attempt) placing the result in
// [cap/2, cap]. The growth loop stops at the cap, so the delay is bounded
// no matter how many retries a flaky caller accumulates, and the jitter is
// a pure function of its inputs, so retry timing replays exactly from a
// seed. Zero or negative base and max select 50ms and 2s.
func BackoffDelay(base, max time.Duration, seed int64, attempt int) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	if max < base {
		max = base
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	jit := New(seed + int64(attempt))
	return d/2 + time.Duration(jit.Int63n(int64(d/2)+1))
}
