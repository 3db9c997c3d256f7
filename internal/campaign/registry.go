package campaign

import (
	"context"
	"sync"
	"time"

	"looppoint/internal/serve"
)

// Worker is one fleet member as the coordinator tracks it: the client, the
// slot count its /readyz probe advertises, and a per-worker circuit
// breaker driven by observed dispatch outcomes (429s, 5xx, timeouts,
// transport errors). The two signals are deliberately independent: the
// probe says "the process answers /readyz and runs this many jobs at
// once", the breaker says "claims I send there actually land" — a worker
// can pass one and fail the other (wedged runner, storm of sheds), and
// dispatch requires both.
type Worker struct {
	client  WorkerClient
	breaker *serve.Breaker

	mu    sync.Mutex
	slots int    // the last probe's advertised slots; 0 while it fails
	live  []bool // live[i]: dispatch runner i is running
}

// Name returns the worker's display name.
func (w *Worker) Name() string { return w.client.Name() }

// Slots returns the slot count the last probe learned — how many claims
// the coordinator keeps in flight to this worker; 0 when the probe failed.
func (w *Worker) Slots() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.slots
}

// Breaker exposes the worker's dispatch breaker (tests and stats).
func (w *Worker) Breaker() *serve.Breaker { return w.breaker }

// vacant marks as running, and returns, every runner index below the
// slot count that has no live runner.
func (w *Worker) vacant() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.live) < w.slots {
		w.live = append(w.live, false)
	}
	var idx []int
	for i := 0; i < w.slots; i++ {
		if !w.live[i] {
			w.live[i] = true
			idx = append(idx, i)
		}
	}
	return idx
}

// keep reports whether runner i still fits the slot count. A runner that
// does not is retired here, under the same lock vacant takes, so the next
// fit restarts index i if the worker grows back.
func (w *Worker) keep(i int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if i < w.slots {
		return true
	}
	w.live[i] = false
	return false
}

// Registry is the coordinator's view of the fleet.
type Registry struct {
	workers []*Worker
}

// NewRegistry wraps each client with a breaker named after the worker,
// so trips are attributable. Every worker starts with zero slots: it gets
// no claims until a probe succeeds.
func NewRegistry(clients []WorkerClient, bopts serve.BreakerOpts) *Registry {
	r := &Registry{}
	for _, c := range clients {
		r.workers = append(r.workers, &Worker{client: c, breaker: serve.NewBreaker(c.Name(), bopts)})
	}
	return r
}

// Workers returns the fleet.
func (r *Registry) Workers() []*Worker { return r.workers }

// Probe runs one readiness pass over the whole fleet, recording each
// worker's advertised slots (0 for a worker that is not ready).
func (r *Registry) Probe(ctx context.Context, timeout time.Duration) {
	for _, w := range r.workers {
		pctx, cancel := context.WithTimeout(ctx, timeout)
		slots, err := w.client.Ready(pctx)
		cancel()
		if err != nil {
			slots = 0
		}
		w.mu.Lock()
		w.slots = slots
		w.mu.Unlock()
	}
}
