package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestProtectReturnsPanicError: a panicking call comes back once as a
// *PanicError error carrying the panic value, and a clean call's result
// passes through.
func TestProtectReturnsPanicError(t *testing.T) {
	var calls int
	_, err := Protect(func() (int, error) {
		calls++
		panic("kaboom")
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Fatalf("err = %v, want *PanicError(kaboom)", err)
	}
	if v, err := Protect(func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("clean call: %d, %v", v, err)
	}
}

// TestRunWithDegradedCollectsAll: degraded mode runs every item, turns
// panics into per-item *PanicError results, and never cancels siblings.
func TestRunWithDegradedCollectsAll(t *testing.T) {
	const n = 16
	var ran atomic.Int64
	errs, err := RunWith(context.Background(), n, Options{Width: 4, Degraded: true}, func(ctx context.Context, i int) error {
		ran.Add(1)
		switch i {
		case 3:
			return errors.New("item 3 failed")
		case 7:
			panic("item 7 crashed")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("aggregate err = %v", err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d items, want %d", ran.Load(), n)
	}
	for i, e := range errs {
		switch i {
		case 3:
			if e == nil {
				t.Fatalf("item 3 error missing")
			}
		case 7:
			var pe *PanicError
			if !errors.As(e, &pe) || pe.Value != "item 7 crashed" {
				t.Fatalf("item 7: %v, want *PanicError", e)
			}
		default:
			if e != nil {
				t.Fatalf("item %d: unexpected error %v", i, e)
			}
		}
	}
}

// TestRunWithStrictMatchesRun: the zero Options preserve historical Run
// semantics — lowest-index error, sibling cancellation, panic re-raise.
func TestRunWithStrictMatchesRun(t *testing.T) {
	errs, err := RunWith(context.Background(), 8, Options{Width: 1}, func(ctx context.Context, i int) error {
		if i >= 2 {
			return fmt.Errorf("item %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 2" {
		t.Fatalf("err = %v, want item 2", err)
	}
	if errs[2] == nil {
		t.Fatalf("per-item slice missing the failure")
	}

	defer func() {
		var pe *PanicError
		r := recover()
		if err, ok := r.(error); !ok || !errors.As(err, &pe) {
			t.Fatalf("recover = %v, want *PanicError", r)
		}
	}()
	RunWith(context.Background(), 4, Options{}, func(ctx context.Context, i int) error {
		if i == 1 {
			panic("strict crash")
		}
		return nil
	})
	t.Fatalf("strict panic was not re-raised")
}

// TestMapWithDegradedKeepsSurvivors: failed items leave zero values but
// surviving results are returned in index order.
func TestMapWithDegradedKeepsSurvivors(t *testing.T) {
	out, errs, err := MapWith(context.Background(), 6, Options{Degraded: true}, func(ctx context.Context, i int) (int, error) {
		if i == 4 {
			return 0, errors.New("nope")
		}
		return i * 10, nil
	})
	if err != nil {
		t.Fatalf("aggregate err = %v", err)
	}
	for i := range out {
		if i == 4 {
			if errs[i] == nil || out[i] != 0 {
				t.Fatalf("item 4: out=%d errs=%v", out[i], errs[i])
			}
			continue
		}
		if out[i] != i*10 || errs[i] != nil {
			t.Fatalf("item %d: out=%d errs=%v", i, out[i], errs[i])
		}
	}
}

// TestBackoffDelayJitterDeterministic: a fixed seed reproduces the exact
// delay schedule, every delay stays within the capped exponential
// envelope, and distinct seeds give distinct (desynchronized) schedules.
func TestBackoffDelayJitterDeterministic(t *testing.T) {
	const base, max = 4 * time.Millisecond, 64 * time.Millisecond
	schedule := func(seed uint64) []time.Duration {
		state := seed
		var ds []time.Duration
		for a := 1; a <= 8; a++ {
			ds = append(ds, BackoffDelay(base, max, a, &state))
		}
		return ds
	}
	first, second := schedule(7), schedule(7)
	for a, d := range first {
		if d != second[a] {
			t.Fatalf("attempt %d: same seed gave %v then %v", a+1, d, second[a])
		}
		env := base << a
		if env > max || env <= 0 {
			env = max
		}
		if d < 0 || d > env {
			t.Fatalf("attempt %d: delay %v outside [0, %v]", a+1, d, env)
		}
	}
	other := schedule(8)
	same := true
	for a := range first {
		if first[a] != other[a] {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 7 and 8 produced identical schedules %v", first)
	}
}

// TestMixSeedDecorrelatesItems: sibling jobs of one campaign must not
// share a jitter stream, or they would all back off in lockstep.
func TestMixSeedDecorrelatesItems(t *testing.T) {
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 64; i++ {
		s := MixSeed(42, i)
		if s == 0 {
			t.Fatalf("item %d: zero stream", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("items %d and %d share jitter stream %#x", prev, i, s)
		}
		seen[s] = i
	}
}

// TestRunWithCancelMarksUnrunItems: cancelling the caller's context
// mid-queue stops the sweep at the next item boundary and marks every
// item that never ran with the cancellation error — abandoned callers
// must not leave workers grinding through the rest of the queue.
func TestRunWithCancelMarksUnrunItems(t *testing.T) {
	const n = 64
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	errs, err := RunWith(ctx, n, Options{Width: 1}, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			cancel()
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d items ran after cancellation, want 1", got)
	}
	for i, e := range errs {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled marker", i, e)
		}
	}
}

// TestMapWithCancelMarksUnrunItems: same contract through MapWith in
// degraded mode — the per-item error slice distinguishes "never ran"
// (ctx.Err()) from "succeeded" (nil) after a mid-queue cancellation.
func TestMapWithCancelMarksUnrunItems(t *testing.T) {
	const n = 32
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, errs, err := MapWith(ctx, n, Options{Width: 2, Degraded: true}, func(ctx context.Context, i int) (int, error) {
		if ran.Add(1) == 2 {
			cancel()
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("%d items ran, want exactly the 2 admitted before cancellation", got)
	}
	marked := 0
	for i, e := range errs {
		if e == nil {
			t.Fatalf("item %d: nil error after cancelled sweep", i)
		}
		if errors.Is(e, context.Canceled) {
			marked++
		}
	}
	if marked != n {
		t.Fatalf("%d items marked cancelled, want %d", marked, n)
	}
}

// TestRunWithStrictFailurePrecedesMarkers: after an organic item failure
// cancels a strict sweep, the aggregate must still be the organic error,
// not a cancellation marker from a skipped later item.
func TestRunWithStrictFailurePrecedesMarkers(t *testing.T) {
	organic := errors.New("item 1 broke")
	errs, err := RunWith(context.Background(), 16, Options{Width: 1}, func(ctx context.Context, i int) error {
		if i == 1 {
			return organic
		}
		return nil
	})
	if !errors.Is(err, organic) {
		t.Fatalf("aggregate err = %v, want the organic failure", err)
	}
	if errs[0] != nil || !errors.Is(errs[1], organic) {
		t.Fatalf("errs[0..1] = %v, %v", errs[0], errs[1])
	}
	for i := 2; i < 16; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("item %d: err = %v, want cancellation marker", i, errs[i])
		}
	}
}

// TestRunWithStrictSiblingFailureBeatsCancel: item 0 waits for the pool's
// cancellation and returns ctx.Err(), the way a sweep item waiting for a
// slot does; item 1's failure caused that cancellation, so the aggregate
// is item 1's error even though item 0 has the lower index.
func TestRunWithStrictSiblingFailureBeatsCancel(t *testing.T) {
	organic := errors.New("item 1 broke")
	errs, err := RunWith(context.Background(), 2, Options{Width: 2}, func(ctx context.Context, i int) error {
		if i == 1 {
			return organic
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, organic) {
		t.Fatalf("aggregate err = %v, want item 1's failure", err)
	}
	if !errors.Is(errs[0], context.Canceled) || !errors.Is(errs[1], organic) {
		t.Fatalf("errs = %v", errs)
	}

	// With nothing else failing, the cancellation is still reported.
	_, err = RunWith(context.Background(), 2, Options{Width: 2}, func(ctx context.Context, i int) error {
		return context.Canceled
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("only cancellations: aggregate err = %v, want context.Canceled", err)
	}
}
