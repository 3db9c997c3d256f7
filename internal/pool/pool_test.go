package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunBoundedWidth verifies that observed concurrency never exceeds
// the requested width, across a table of widths and item counts.
func TestRunBoundedWidth(t *testing.T) {
	cases := []struct {
		name  string
		width int
		items int
	}{
		{"width1", 1, 16},
		{"width2", 2, 16},
		{"width4", 4, 32},
		{"width8-few-items", 8, 3},
		{"wider-than-items", 64, 5},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var cur, peak, ran atomic.Int64
			err := Run(context.Background(), c.width, c.items, func(ctx context.Context, i int) error {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
				ran.Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			bound := int64(c.width)
			if c.items < c.width {
				bound = int64(c.items)
			}
			if p := peak.Load(); p > bound {
				t.Errorf("observed concurrency %d exceeds width %d", p, bound)
			}
			if ran.Load() != int64(c.items) {
				t.Errorf("ran %d items, want %d", ran.Load(), c.items)
			}
		})
	}
}

// TestRunEdgeCases covers the zero-item and one-item shapes.
func TestRunEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		width   int
		items   int
		wantRun int
	}{
		{"zero-items", 4, 0, 0},
		{"negative-items", 4, -3, 0},
		{"one-item", 4, 1, 1},
		{"zero-width-defaults", 0, 4, 4},
		{"negative-width-defaults", -1, 4, 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var ran atomic.Int64
			err := Run(context.Background(), c.width, c.items, func(ctx context.Context, i int) error {
				ran.Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if ran.Load() != int64(c.wantRun) {
				t.Errorf("ran %d, want %d", ran.Load(), c.wantRun)
			}
		})
	}
}

// TestRunFirstErrorCancels verifies that an error stops unstarted work
// and that running items can observe the cancellation.
func TestRunFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	err := Run(context.Background(), 2, 100, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return fmt.Errorf("item 0: %w", boom)
		}
		select {
		case <-ctx.Done():
		case <-time.After(50 * time.Millisecond):
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Width 2 and an immediate failure on item 0: far fewer than 100
	// items may start before cancellation is observed.
	if s := started.Load(); s > 10 {
		t.Errorf("%d items started after first error; cancellation not short-circuiting", s)
	}
}

// TestRunLowestIndexErrorWins verifies the deterministic error choice
// when several items fail concurrently.
func TestRunLowestIndexErrorWins(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(4)
	err := Run(context.Background(), 4, 4, func(ctx context.Context, i int) error {
		// All four fail together so every errs slot is populated before
		// cancellation can skip any of them.
		gate.Done()
		gate.Wait()
		return fmt.Errorf("item %d failed", i)
	})
	if err == nil || err.Error() != "item 0 failed" {
		t.Errorf("err = %v, want item 0's error", err)
	}
}

// TestRunPanicPropagates verifies a worker panic re-raises on the caller
// goroutine as *PanicError with the original value attached.
func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
		if pe.Value != "kaboom" {
			t.Errorf("panic value = %v, want kaboom", pe.Value)
		}
		if !strings.Contains(pe.Error(), "kaboom") {
			t.Errorf("PanicError message missing value: %s", pe.Error())
		}
	}()
	_ = Run(context.Background(), 2, 8, func(ctx context.Context, i int) error {
		if i == 3 {
			panic("kaboom")
		}
		return nil
	})
	t.Fatal("Run returned normally despite panic")
}

// TestRunParentCancellation verifies a canceled parent context surfaces
// as the returned error when no item fails.
func TestRunParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	var ran atomic.Int64
	err := Run(ctx, 1, 50, func(ctx context.Context, i int) error {
		ran.Add(1)
		once.Do(cancel)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// An abandoned caller stops the worker at its next item boundary.
	if got := ran.Load(); got != 1 {
		t.Errorf("%d items ran after cancellation, want 1", got)
	}
}

// TestMapOrderStable verifies Map returns results indexed by item, not
// by completion order — the determinism contract.
func TestMapOrderStable(t *testing.T) {
	n := 32
	got, err := Map(context.Background(), 8, n, func(ctx context.Context, i int) (int, error) {
		// Earlier items sleep longer so completion order inverts index
		// order; the result slice must still be in index order.
		time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapErrorDiscardsResults verifies Map returns nil results on error.
func TestMapErrorDiscardsResults(t *testing.T) {
	got, err := Map(context.Background(), 2, 4, func(ctx context.Context, i int) (int, error) {
		if i == 2 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if got != nil {
		t.Errorf("partial results %v returned with error", got)
	}
}

// TestFlightDedupsConcurrentCallers verifies N concurrent callers of the
// same key execute fn exactly once and all receive its result.
func TestFlightDedupsConcurrentCallers(t *testing.T) {
	var f Flight[int]
	var execs atomic.Int64
	release := make(chan struct{})
	const callers = 16

	var wg, ready sync.WaitGroup
	ready.Add(callers)
	vals := make([]int, callers)
	shared := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Done()
			v, err, sh := f.Do("key", func() (int, error) {
				execs.Add(1)
				<-release // hold the call open so everyone piles on
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i], shared[i] = v, sh
		}(i)
	}
	// Let every goroutine reach Do before releasing the first call.
	ready.Wait()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Errorf("fn executed %d times, want 1", n)
	}
	sharedCount := 0
	for i := 0; i < callers; i++ {
		if vals[i] != 42 {
			t.Errorf("caller %d got %d", i, vals[i])
		}
		if shared[i] {
			sharedCount++
		}
	}
	if sharedCount != callers-1 {
		t.Errorf("%d callers marked shared, want %d", sharedCount, callers-1)
	}
}

// TestFlightDistinctKeysRunIndependently verifies different keys do not
// serialize on each other.
func TestFlightDistinctKeysRunIndependently(t *testing.T) {
	var f Flight[string]
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", i)
			v, err, _ := f.Do(key, func() (string, error) {
				execs.Add(1)
				return key, nil
			})
			if err != nil || v != key {
				t.Errorf("key %s: v=%q err=%v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
	if n := execs.Load(); n != 4 {
		t.Errorf("executed %d, want 4", n)
	}
}

// TestFlightErrorSharedWithWaiters verifies an error from the executing
// call reaches attached waiters, and the key is forgotten afterwards.
func TestFlightErrorSharedWithWaiters(t *testing.T) {
	var f Flight[int]
	boom := errors.New("boom")
	started := make(chan struct{})

	var wval int
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-started
		wval, werr, _ = f.Do("k", func() (int, error) { return 5, nil })
	}()
	_, err, _ := f.Do("k", func() (int, error) {
		close(started)
		time.Sleep(20 * time.Millisecond) // let the waiter attach
		return 0, boom
	})
	wg.Wait()
	if !errors.Is(err, boom) {
		t.Errorf("executor err = %v", err)
	}
	// The waiter either attached in time (shares boom) or arrived after
	// the key was forgotten (runs its own fn and gets 5).
	if werr != nil && !errors.Is(werr, boom) {
		t.Errorf("waiter err = %v, want boom", werr)
	}
	if werr == nil && wval != 5 {
		t.Errorf("fresh waiter got %d, want 5", wval)
	}

	// Key forgotten: a later call executes again.
	v, err, shared := f.Do("k", func() (int, error) { return 7, nil })
	if v != 7 || err != nil || shared {
		t.Errorf("post-error call: v=%d err=%v shared=%v", v, err, shared)
	}
}

// TestFlightPanicUnblocksWaiters verifies a panicking fn re-raises in
// the executor while attached waiters receive a *PanicError instead of
// hanging forever.
func TestFlightPanicUnblocksWaiters(t *testing.T) {
	var f Flight[int]
	started := make(chan struct{})

	var wval int
	var werr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-started
		wval, werr, _ = f.Do("k", func() (int, error) { return 1, nil })
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("executor panic swallowed")
			}
		}()
		f.Do("k", func() (int, error) {
			close(started)
			time.Sleep(20 * time.Millisecond) // let the waiter attach
			panic("flight panic")
		})
	}()
	<-done
	// The waiter either attached (gets *PanicError) or arrived after the
	// key was forgotten (executes fn itself and succeeds with 1).
	if werr != nil {
		var pe *PanicError
		if !errors.As(werr, &pe) {
			t.Errorf("waiter err = %v, want *PanicError", werr)
		}
	} else if wval != 1 {
		t.Errorf("fresh waiter got %d, want 1", wval)
	}
}

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

// TestRunWithStrictFailurePrecedesMarkers: after an organic item failure
// cancels the sweep, the returned error must still be the organic one,
// not the cancellation that stopped the later items.
func TestRunWithStrictFailurePrecedesMarkers(t *testing.T) {
	organic := errors.New("item 1 broke")
	var ran atomic.Int64
	err := Run(context.Background(), 1, 16, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 1 {
			return organic
		}
		return nil
	})
	if !errors.Is(err, organic) {
		t.Fatalf("err = %v, want the organic failure", err)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("%d items ran, want 2: the failure stops the rest", got)
	}
}

// TestRunWithStrictSiblingFailureBeatsCancel: item 0 waits for the pool's
// cancellation and returns ctx.Err(), the way a sweep item waiting for a
// slot does; item 1's failure caused that cancellation, so Run returns
// item 1's error even though item 0 has the lower index.
func TestRunWithStrictSiblingFailureBeatsCancel(t *testing.T) {
	organic := errors.New("item 1 broke")
	err := Run(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			return organic
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, organic) {
		t.Fatalf("err = %v, want item 1's failure", err)
	}

	// With nothing else failing, the cancellation is still reported.
	err = Run(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		return context.Canceled
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("only cancellations: err = %v, want context.Canceled", err)
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
