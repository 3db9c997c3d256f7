package pool

import "time"

// splitmix64 is the SplitMix64 finalizer: a cheap bijective avalanche
// used both to step the jitter PRNG and to derive independent streams
// from one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MixSeed derives the jitter stream for item i from a caller-fixed seed,
// so siblings back off on decorrelated schedules while the whole run
// stays reproducible. The campaign coordinator gives each campaign job
// its stream this way.
func MixSeed(seed, i uint64) uint64 { return splitmix64(seed ^ splitmix64(i+1)) }

// BackoffDelay returns the sleep before retry attempt a (a >= 1, i.e.
// the delay between attempt a and attempt a+1): base<<(a-1) capped at
// max, full-jittered to a uniform draw from [0, d] — so many jobs
// failing together never retry in lockstep (a synchronized retry storm
// re-kills the very resource the backoff is protecting). state is the
// jitter PRNG, advanced in place — a pure function of (seed, call
// sequence), so a fixed seed reproduces the schedule exactly.
func BackoffDelay(base, max time.Duration, a int, state *uint64) time.Duration {
	if a < 1 {
		a = 1
	}
	d := base << (a - 1)
	if d > max || d <= 0 { // <= 0 guards shift overflow
		d = max
	}
	*state = splitmix64(*state)
	return time.Duration(*state % uint64(d+1))
}
