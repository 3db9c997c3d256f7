// Package pool provides the bounded-concurrency execution layer shared
// by the whole repository: a worker pool with a configurable width,
// first-error cancellation, and panic propagation (pool.Run / pool.Map),
// plus a singleflight-style deduplicator (pool.Flight) so concurrent
// callers of the same expensive computation share one in-flight result.
//
// LoopPoint's checkpoints make region simulations independent (paper
// Section III-J), which is what licenses running them concurrently at
// all; this package is what turns that independence into bounded,
// deterministic host-side parallelism. Every fan-out in the repository
// (core.SimulateRegions, the harness experiments, lpsim's checkpoint
// directory mode) goes through Run/Map, and results are always collected
// by item index, so output is ordering-stable regardless of the width:
// the same seed produces byte-identical reports at width 1 and width N.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWidth is the width used when a caller passes width <= 0: one
// worker per available CPU.
func DefaultWidth() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// PanicError wraps a panic recovered in a pool worker so it can be
// re-raised on the caller's goroutine with the worker's stack attached.
type PanicError struct {
	Value any
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("pool: worker panic: %v\n%s", p.Value, p.Stack)
}

// Options extends Run/Map with the fault-tolerance knobs the sampling
// pipeline uses. The zero value reproduces the historical Run/Map
// behavior exactly: DefaultWidth workers, one attempt per item, no
// timeout, strict first-error cancellation with panic re-raise.
type Options struct {
	// Width bounds concurrent workers; <= 0 means DefaultWidth.
	Width int
	// Attempts is the per-item attempt budget (<= 1 means a single
	// attempt). Failed attempts are retried with Retry's capped
	// exponential backoff; Permanent-wrapped errors and *PanicError stop
	// early.
	Attempts int
	// Backoff is the delay before the second attempt, doubling each
	// retry (default 1ms when retries are armed).
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 250ms).
	MaxBackoff time.Duration
	// ItemTimeout bounds each attempt; 0 means no timeout. See Retry for
	// the abandoned-goroutine semantics on CPU-bound work: Run/RunWith fn
	// side effects must tolerate a concurrent abandoned attempt, while
	// MapWith results are published only after a non-abandoned attempt
	// succeeds, so pure value-returning fn need no extra care.
	ItemTimeout time.Duration
	// Degraded switches the pool from all-or-nothing to collect-what-you-
	// can: an item's failure (after its attempt budget) no longer cancels
	// siblings, and a panic in a worker is downgraded to that item's
	// *PanicError result instead of being re-raised. Per-item errors come
	// back in the []error slice; callers decide how much failure is
	// tolerable.
	Degraded bool
	// JitterSeed seeds the deterministic full-jitter stream applied to
	// Retry's backoff (each delay is drawn uniformly from [0, d] where d
	// is the capped exponential schedule). Zero draws a distinct seed per
	// Retry call from a process-wide counter, which desynchronizes
	// concurrent retriers; tests that need an exact, reproducible delay
	// schedule fix the seed. RunWith/MapWith derive a distinct per-item
	// stream from a fixed seed, so sibling items never back off in
	// lockstep.
	JitterSeed uint64
	// NoJitter disables backoff jitter entirely: delays follow the exact
	// Backoff, 2×Backoff, … doubling. Only for tests that script precise
	// timing; production callers should keep jitter to avoid synchronized
	// retry storms.
	NoJitter bool
}

// Run executes fn(ctx, i) for every i in [0, n) on at most width
// concurrent workers (width <= 0 means DefaultWidth). The first error
// cancels the derived context and stops unstarted items; items already
// running observe ctx.Done(). When several items fail before
// cancellation lands, the error of the lowest index is returned, so the
// reported error does not depend on goroutine scheduling. A panic in fn
// is recovered, the pool drains, and the panic is re-raised on the
// calling goroutine wrapped in *PanicError.
func Run(ctx context.Context, width, n int, fn func(ctx context.Context, i int) error) error {
	_, err := RunWith(ctx, n, Options{Width: width}, fn)
	return err
}

// RunWith is Run with Options. It returns the per-item error slice
// (indexed like the items, nil entries for successes) and an aggregate
// error. In strict mode (Degraded false) the aggregate is the
// lowest-index item error, matching Run. In degraded mode the aggregate
// reflects only caller-context cancellation; item failures — including
// recovered worker panics as *PanicError — are reported solely through
// the slice, and every item gets its chance to run.
//
// Once the sweep is cancelled — by the caller's context or, in strict
// mode, by an earlier item's failure — the remaining items are not run;
// each gets the cancellation error in its slot instead of a silent nil,
// so callers can always tell "never ran" from "succeeded". An abandoned
// caller (context cancelled mid-queue) therefore stops the workers at
// their next item boundary rather than leaving them grinding through
// the rest of the queue.
func RunWith(ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) error) ([]error, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	width := opts.Width
	if width <= 0 {
		width = DefaultWidth()
	}
	if width > n {
		width = n
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	item := fn
	if opts.Attempts > 1 || opts.ItemTimeout > 0 {
		item = func(ctx context.Context, i int) error {
			iopts := opts
			if iopts.JitterSeed != 0 {
				iopts.JitterSeed = MixSeed(iopts.JitterSeed, uint64(i))
			}
			return Retry(ctx, iopts, func(ctx context.Context) error { return fn(ctx, i) })
		}
	}

	errs := make([]error, n)
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  *PanicError
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// In degraded mode only the caller's context stops the
				// sweep (cancel is never called on item failure), so this
				// one check serves both modes. A cancelled sweep still
				// claims the remaining items, marking each with the
				// cancellation error: claims are monotonic, so these
				// markers sit above every index that actually ran, and the
				// strict-mode lowest-index scan still reports the organic
				// failure that triggered the cancel.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							pe, ok := r.(*PanicError)
							if !ok {
								pe = &PanicError{Value: r, Stack: debug.Stack()}
							}
							if opts.Degraded {
								errs[i] = pe
								return
							}
							panicOnce.Do(func() { panicked = pe })
							cancel()
						}
					}()
					err := item(ctx, i)
					if err == nil {
						return
					}
					// Retry surfaces worker panics as *PanicError errors;
					// strict mode owes the caller a re-raise.
					var pe *PanicError
					if !opts.Degraded && errors.As(err, &pe) {
						panic(pe)
					}
					errs[i] = err
					if !opts.Degraded {
						cancel()
					}
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if !opts.Degraded {
		for _, err := range errs {
			if err != nil {
				return errs, err
			}
		}
	}
	return errs, parent.Err()
}

// Map runs fn over every index in [0, n) with Run's bounding and
// cancellation semantics and returns the results in index order — the
// ordering-stability contract every report in this repository relies on.
// On error the partial results are discarded.
func Map[T any](ctx context.Context, width, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out, _, err := MapWith(ctx, n, Options{Width: width}, fn)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapWith is Map with Options. Results come back in index order. In
// degraded mode a failed item leaves its zero value in the result slice
// with the cause at the same index of the error slice, and the surviving
// results are kept — the collect-what-you-can contract degradation in
// core builds on. In strict mode a failure returns the aggregate error
// and the partial results should be discarded, as with Map.
//
// Retries and ItemTimeout are applied here via RetryValue rather than
// through RunWith's wrapper, so the shared result slice is written only
// by the pool worker after an attempt RetryValue actually waited for
// succeeds: an attempt abandoned by ItemTimeout has its value discarded
// inside RetryValue and can never race a later attempt's write or the
// caller's read of the results.
func MapWith[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	out := make([]T, n)
	retried := opts.Attempts > 1 || opts.ItemTimeout > 0
	runOpts := opts
	runOpts.Attempts = 0
	runOpts.ItemTimeout = 0
	errs, err := RunWith(ctx, n, runOpts, func(ctx context.Context, i int) error {
		var v T
		var ferr error
		if retried {
			iopts := opts
			if iopts.JitterSeed != 0 {
				iopts.JitterSeed = MixSeed(iopts.JitterSeed, uint64(i))
			}
			v, ferr = RetryValue(ctx, iopts, func(ctx context.Context) (T, error) { return fn(ctx, i) })
		} else {
			v, ferr = fn(ctx, i)
		}
		if ferr != nil {
			return ferr
		}
		out[i] = v
		return nil
	})
	return out, errs, err
}
