package pool

import "sync"

// flightCall is one in-flight computation shared by concurrent callers.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Flight deduplicates concurrent calls for the same key: while one
// caller executes fn, later callers for the same key block and receive
// the same result instead of duplicating the work (the cache-stampede
// fix for harness.Evaluator). Completed keys are forgotten immediately —
// Flight is a dedup layer for in-flight work, not a cache; durable
// memoization stays with the caller.
//
// The zero value is ready to use.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

// Do executes fn under key, or — if a call for key is already in flight —
// waits for it and returns its result. shared reports whether the result
// came from another caller's execution. A panic in fn is re-raised in
// the executing caller and surfaced as an error to the waiters, so no
// goroutine is left blocked.
func (f *Flight[V]) Do(key string, fn func() (V, error)) (val V, err error, shared bool) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	normal := false
	defer func() {
		if !normal {
			c.err = asPanicError(recover())
		}
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
		if !normal {
			panic(c.err)
		}
	}()
	c.val, c.err = fn()
	normal = true
	return c.val, c.err, false
}
