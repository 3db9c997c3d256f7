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

// asPanicError wraps a recovered panic value with the current stack,
// keeping a nested pool's *PanicError (and the stack it captured) as is.
func asPanicError(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// Protect runs fn once and returns a panic in it as a *PanicError error
// instead of unwinding the caller — for a single call that must report a
// bug as its result (core's overlapped full run, serve's job) rather than
// take its goroutine down.
func Protect[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, asPanicError(r)
		}
	}()
	return fn()
}

// Options extends Run/Map with the degraded mode lpsim's checkpoint
// directory mode uses to quarantine corrupt files. The zero value is Run/Map: DefaultWidth workers, one call per
// item, strict first-error cancellation with panic re-raise. There is no
// per-item retry: an item is a deterministic function of its input, so a
// second call in place fails the same way (DESIGN.md §9).
type Options struct {
	// Width bounds concurrent workers; <= 0 means DefaultWidth.
	Width int
	// Degraded switches the pool from all-or-nothing to collect-what-you-
	// can: an item's failure no longer cancels siblings, and a panic in a
	// worker is downgraded to that item's *PanicError result instead of
	// being re-raised. Per-item errors come back in the []error slice;
	// callers decide how much failure is tolerable.
	Degraded bool
}

// Run executes fn(ctx, i) for every i in [0, n) on at most width
// concurrent workers (width <= 0 means DefaultWidth). The first error
// cancels the derived context and stops unstarted items; items already
// running observe ctx.Done(). When several items fail before
// cancellation lands, the error of the lowest index is returned, so the
// reported error does not depend on goroutine scheduling; an item that
// only reports the pool's own cancellation does not count as a failure
// unless nothing else failed. A panic in fn
// is recovered, the pool drains, and the panic is re-raised on the
// calling goroutine wrapped in *PanicError.
func Run(ctx context.Context, width, n int, fn func(ctx context.Context, i int) error) error {
	_, err := RunWith(ctx, n, Options{Width: width}, fn)
	return err
}

// RunWith is Run with Options. It returns the per-item error slice
// (indexed like the items, nil entries for successes) and an aggregate
// error. In strict mode (Degraded false) the aggregate is the
// lowest-index item error, matching Run; while the caller's context is
// live, an item's context.Canceled is taken for the pool's own
// cancellation and loses to any other failure. In degraded mode the
// aggregate reflects only caller-context cancellation; item failures —
// including recovered worker panics as *PanicError — are reported solely
// through the slice, and every item gets its chance to run.
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
							pe := asPanicError(r)
							if opts.Degraded {
								errs[i] = pe
								return
							}
							panicOnce.Do(func() { panicked = pe })
							cancel()
						}
					}()
					err := fn(ctx, i)
					if err == nil {
						return
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
		// An item waiting when a sibling's failure cancelled ctx returns
		// ctx.Err(), at whatever index; the failure is the cause.
		live := parent.Err() == nil
		var cancelled error
		for _, err := range errs {
			switch {
			case err == nil:
			case live && errors.Is(err, context.Canceled):
				if cancelled == nil {
					cancelled = err
				}
			default:
				return errs, err
			}
		}
		if cancelled != nil {
			return errs, cancelled
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
// results are kept — the collect-what-you-can contract lpsim's checkpoint
// directory mode builds on. In strict mode a failure returns the aggregate error
// and the partial results should be discarded, as with Map.
func MapWith[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	out := make([]T, n)
	errs, err := RunWith(ctx, n, opts, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, errs, err
}
