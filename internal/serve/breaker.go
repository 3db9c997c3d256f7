package serve

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

// Breaker states. Closed admits everything; Open rejects everything
// until OpenFor has elapsed; HalfOpen admits a bounded number of probe
// requests whose outcomes decide between closing and re-opening.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Breaker defaults: five consecutive failures trip the breaker, it holds
// open for ten seconds, and one successful probe closes it again.
const (
	DefaultFailureThreshold = 5
	DefaultOpenFor          = 10 * time.Second
	DefaultHalfOpenProbes   = 1
)

// BreakerOpts configures one circuit breaker. The zero value uses the
// defaults above with the real clock.
type BreakerOpts struct {
	// FailureThreshold is how many consecutive failures (errors or
	// timeouts) trip Closed → Open.
	FailureThreshold int
	// OpenFor is how long the breaker holds Open before letting probe
	// requests through Half-Open.
	OpenFor time.Duration
	// HalfOpenProbes bounds concurrent Half-Open probes and is the number
	// of consecutive probe successes required to close. Any probe failure
	// re-opens immediately.
	HalfOpenProbes int
	// Now is the injected clock (nil: time.Now). Every transition
	// decision reads this one function, so tests drive the state machine
	// with a fake clock and zero wall-clock sleeps.
	Now func() time.Time
}

func (o BreakerOpts) fill() BreakerOpts {
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = DefaultFailureThreshold
	}
	if o.OpenFor <= 0 {
		o.OpenFor = DefaultOpenFor
	}
	if o.HalfOpenProbes <= 0 {
		o.HalfOpenProbes = DefaultHalfOpenProbes
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// BreakerOpenError is the typed rejection returned by Allow while the
// breaker is open (or while Half-Open probe slots are taken). RetryAfter
// is the server's hint for the client's next attempt.
type BreakerOpenError struct {
	Class      string
	State      BreakerState
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("serve: %s breaker %s, retry after %v", e.Class, e.State, e.RetryAfter)
}

// Breaker is a per-job-class circuit breaker: consecutive failures trip
// it open so a failing dependency stops receiving (and queuing) work;
// after OpenFor it probes with a bounded number of requests and closes
// only when the probes succeed. All methods are safe for concurrent use.
//
// Outcome attribution is by completion time, the standard simplification:
// a request admitted while Closed that finishes after a trip is counted
// against the current state. Under the consecutive-failure policy this
// can only delay a close or re-trip an already-suspect class, never mask
// failures.
type Breaker struct {
	class string
	opts  BreakerOpts

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive failures while Closed
	openedAt time.Time // when the breaker last tripped
	probing  int       // in-flight Half-Open probes
	probeOK  int       // consecutive Half-Open probe successes
	trips    uint64
}

// NewBreaker builds a breaker for one job class.
func NewBreaker(class string, opts BreakerOpts) *Breaker {
	return &Breaker{class: class, opts: opts.fill()}
}

// Allow asks to admit one request. A nil return admits it — the caller
// must then report the outcome with exactly one Done (or release the
// slot with Forget if the request is shed before running). A non-nil
// return is a *BreakerOpenError carrying the retry hint.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if wait := b.openedAt.Add(b.opts.OpenFor).Sub(b.opts.Now()); wait > 0 {
			return &BreakerOpenError{Class: b.class, State: BreakerOpen, RetryAfter: wait}
		}
		b.state = BreakerHalfOpen
		b.probing, b.probeOK = 0, 0
		fallthrough
	default: // BreakerHalfOpen
		if b.probing >= b.opts.HalfOpenProbes {
			return &BreakerOpenError{Class: b.class, State: BreakerHalfOpen, RetryAfter: b.opts.OpenFor}
		}
		b.probing++
		return nil
	}
}

// Done reports an admitted request's outcome. Timeouts count as
// failures — a dependency that answers late is as tripped as one that
// errors.
func (b *Breaker) Done(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if success {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.opts.FailureThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		if b.probing > 0 {
			b.probing--
		}
		if !success {
			b.trip()
			return
		}
		b.probeOK++
		if b.probeOK >= b.opts.HalfOpenProbes {
			b.state = BreakerClosed
			b.fails = 0
		}
	case BreakerOpen:
		// A straggler from before the trip; the breaker is already open.
	}
}

// Forget releases an Allow slot without recording an outcome — for
// requests admitted past the breaker but shed before running (queue
// full, drain started).
func (b *Breaker) Forget() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probing > 0 {
		b.probing--
	}
}

// trip moves to Open; callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.opts.Now()
	b.fails = 0
	b.probeOK = 0
	b.trips++
}

// State returns the breaker's position, resolving an expired Open hold
// the same way Allow would observe it.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times the breaker has tripped — observability
// for /v1/stats and the chaos tests.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
