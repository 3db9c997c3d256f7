package serve

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is the injected breaker clock: tests advance it explicitly,
// so the whole state machine runs with zero wall-clock sleeps.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// Step vocabulary for the table tests.
const (
	stepAllowOK  = "allow-ok"  // Allow must admit
	stepAllowRej = "allow-rej" // Allow must reject with *BreakerOpenError
	stepFail     = "fail"      // Done(false)
	stepOK       = "ok"        // Done(true)
	stepForget   = "forget"    // Forget()
	stepAdvance  = "advance"   // clock += d
)

type breakerStep struct {
	op        string
	d         time.Duration
	wantState BreakerState
}

// TestBreakerStateMachine drives the closed → open → half-open → closed
// machine step by step under the fake clock, checking the state after
// every transition.
func TestBreakerStateMachine(t *testing.T) {
	const openFor = 10 * time.Second
	cases := []struct {
		name      string
		threshold int
		probes    int
		steps     []breakerStep
	}{
		{
			name: "failures_below_threshold_stay_closed", threshold: 3, probes: 1,
			steps: []breakerStep{
				{op: stepAllowOK, wantState: BreakerClosed},
				{op: stepFail, wantState: BreakerClosed},
				{op: stepAllowOK, wantState: BreakerClosed},
				{op: stepFail, wantState: BreakerClosed},
				// A success resets the consecutive-failure count...
				{op: stepAllowOK, wantState: BreakerClosed},
				{op: stepOK, wantState: BreakerClosed},
				// ...so two more failures still do not trip.
				{op: stepFail, wantState: BreakerClosed},
				{op: stepFail, wantState: BreakerClosed},
			},
		},
		{
			name: "threshold_trips_open_and_rejects", threshold: 3, probes: 1,
			steps: []breakerStep{
				{op: stepFail, wantState: BreakerClosed},
				{op: stepFail, wantState: BreakerClosed},
				{op: stepFail, wantState: BreakerOpen},
				{op: stepAllowRej, wantState: BreakerOpen},
				// Still rejecting just shy of the hold expiry.
				{op: stepAdvance, d: openFor - time.Millisecond},
				{op: stepAllowRej, wantState: BreakerOpen},
			},
		},
		{
			name: "half_open_probe_success_closes", threshold: 1, probes: 1,
			steps: []breakerStep{
				{op: stepFail, wantState: BreakerOpen},
				{op: stepAdvance, d: openFor},
				{op: stepAllowOK, wantState: BreakerHalfOpen},
				// Probe slot taken: a concurrent request is rejected.
				{op: stepAllowRej, wantState: BreakerHalfOpen},
				{op: stepOK, wantState: BreakerClosed},
				{op: stepAllowOK, wantState: BreakerClosed},
			},
		},
		{
			name: "half_open_probe_failure_reopens", threshold: 1, probes: 1,
			steps: []breakerStep{
				{op: stepFail, wantState: BreakerOpen},
				{op: stepAdvance, d: openFor},
				{op: stepAllowOK, wantState: BreakerHalfOpen},
				{op: stepFail, wantState: BreakerOpen},
				{op: stepAllowRej, wantState: BreakerOpen},
				// The re-trip restarts the hold from the new trip time.
				{op: stepAdvance, d: openFor},
				{op: stepAllowOK, wantState: BreakerHalfOpen},
				{op: stepOK, wantState: BreakerClosed},
			},
		},
		{
			name: "multi_probe_needs_all_successes", threshold: 1, probes: 2,
			steps: []breakerStep{
				{op: stepFail, wantState: BreakerOpen},
				{op: stepAdvance, d: openFor},
				{op: stepAllowOK, wantState: BreakerHalfOpen},
				{op: stepAllowOK, wantState: BreakerHalfOpen},
				{op: stepAllowRej, wantState: BreakerHalfOpen}, // both slots taken
				{op: stepOK, wantState: BreakerHalfOpen},       // one success is not enough
				{op: stepOK, wantState: BreakerClosed},
			},
		},
		{
			name: "forget_releases_probe_slot", threshold: 1, probes: 1,
			steps: []breakerStep{
				{op: stepFail, wantState: BreakerOpen},
				{op: stepAdvance, d: openFor},
				{op: stepAllowOK, wantState: BreakerHalfOpen},
				// The probe is shed before running (queue full / drain):
				// Forget must free the slot or the class wedges half-open.
				{op: stepForget, wantState: BreakerHalfOpen},
				{op: stepAllowOK, wantState: BreakerHalfOpen},
				{op: stepOK, wantState: BreakerClosed},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			b := NewBreaker("test", BreakerOpts{
				FailureThreshold: tc.threshold,
				OpenFor:          openFor,
				HalfOpenProbes:   tc.probes,
				Now:              clk.Now,
			})
			for i, st := range tc.steps {
				switch st.op {
				case stepAllowOK:
					if err := b.Allow(); err != nil {
						t.Fatalf("step %d: Allow rejected: %v", i, err)
					}
				case stepAllowRej:
					err := b.Allow()
					var open *BreakerOpenError
					if !errors.As(err, &open) {
						t.Fatalf("step %d: Allow = %v, want *BreakerOpenError", i, err)
					}
					if open.RetryAfter <= 0 {
						t.Fatalf("step %d: RetryAfter %v, want > 0", i, open.RetryAfter)
					}
				case stepFail:
					b.Done(false)
				case stepOK:
					b.Done(true)
				case stepForget:
					b.Forget()
				case stepAdvance:
					clk.Advance(st.d)
					continue
				}
				if got := b.State(); got != st.wantState {
					t.Fatalf("step %d (%s): state %v, want %v", i, st.op, got, st.wantState)
				}
			}
		})
	}
}

// TestBreakerTripCounter: trips are counted for observability, and a
// straggler Done from before the trip does not disturb the open state.
func TestBreakerTripCounter(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker("test", BreakerOpts{FailureThreshold: 1, OpenFor: time.Second, Now: clk.Now})
	b.Done(false)
	if got := b.Trips(); got != 1 {
		t.Fatalf("trips %d, want 1", got)
	}
	// Straggler outcomes while open are ignored.
	b.Done(true)
	b.Done(false)
	if got, want := b.State(), BreakerOpen; got != want {
		t.Fatalf("state %v, want %v", got, want)
	}
	if got := b.Trips(); got != 1 {
		t.Fatalf("trips %d after stragglers, want 1", got)
	}
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Done(false) // probe fails: second trip
	if got := b.Trips(); got != 2 {
		t.Fatalf("trips %d, want 2", got)
	}
}
