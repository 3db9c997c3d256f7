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
// bug as its result (core's overlapped full run, serve's job, each of
// lpsim's checkpoints) rather than take its goroutine down.
func Protect[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, asPanicError(r)
		}
	}()
	return fn()
}

// Run executes fn(ctx, i) for every i in [0, n) on at most width
// concurrent workers (width <= 0 means DefaultWidth). The first error
// cancels the derived context and stops unstarted items; items already
// running observe ctx.Done(). When several items fail before
// cancellation lands, the error of the lowest index is returned, so the
// reported error does not depend on goroutine scheduling; while the
// caller's context is live, an item that only reports the pool's own
// cancellation (context.Canceled) does not count as a failure unless
// nothing else failed. A panic in fn is recovered, the pool drains, and
// the panic is re-raised on the calling goroutine wrapped in *PanicError.
// A cancelled caller stops the workers at their next item boundary.
func Run(ctx context.Context, width, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if width <= 0 {
		width = DefaultWidth()
	}
	width = min(width, n)
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n) // by item index, so the lowest index wins
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
				if i >= n || ctx.Err() != nil {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicked = asPanicError(r) })
							cancel()
						}
					}()
					if err := fn(ctx, i); err != nil {
						errs[i] = err
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
			return err
		}
	}
	if cancelled != nil {
		return cancelled
	}
	return parent.Err()
}

// Map runs fn over every index in [0, n) with Run's bounding and
// cancellation semantics and returns the results in index order — the
// ordering-stability contract every report in this repository relies on.
// On error the partial results are discarded.
func Map[T any](ctx context.Context, width, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Run(ctx, width, n, func(ctx context.Context, i int) (err error) {
		out[i], err = fn(ctx, i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
