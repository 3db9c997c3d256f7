package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"looppoint/internal/artifact"
	"looppoint/internal/pool"
	"looppoint/internal/serve"
)

// Coordinator defaults. Lease and backoff default conservatively for
// real fleets; tests shrink them to the millisecond scale.
const (
	DefaultLease         = 30 * time.Second
	DefaultMaxDuplicates = 2
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultBackoff       = 10 * time.Millisecond
	DefaultMaxBackoff    = 2 * time.Second
)

// Config tunes one campaign run. Zero values take the defaults above.
type Config struct {
	// Tag names the campaign; it participates in every job key, so
	// distinct campaigns never share cache or journal entries by
	// accident.
	Tag string
	// Lease is how long one dispatch owns its job before the coordinator
	// re-enqueues it for another worker (work stealing). It is also sent
	// to the worker as the claim lease, bounding worker-side execution.
	Lease time.Duration
	// RequestTimeout bounds the whole claim HTTP exchange (0: 2×Lease).
	RequestTimeout time.Duration
	// MaxAttempts caps dispatches per job before it is declared failed
	// (0: max(8, 4×workers)).
	MaxAttempts int
	// MaxDuplicates caps concurrent dispatches of one job — the original
	// plus stolen re-dispatches (0: 2).
	MaxDuplicates int
	// Backoff/MaxBackoff shape the per-job retry schedule (full-jittered
	// capped doubling, pool.BackoffDelay).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed fixes the jitter streams: each job derives its stream with
	// pool.MixSeed(Seed, jobIndex), so one seed reproduces the whole
	// campaign's retry timing.
	Seed uint64
	// Breaker configures the per-worker circuit breakers.
	Breaker serve.BreakerOpts
	// ProbeInterval paces the /readyz loop that learns each worker's
	// slots, and with them its dispatch concurrency (0: 500ms).
	ProbeInterval time.Duration
	// CacheDir and JournalPath enable the durable layers; empty keeps
	// the campaign memory-only (no resume).
	CacheDir    string
	JournalPath string
	// Log receives progress lines (nil: silent).
	Log func(format string, args ...any)
}

func (c Config) filled(workers int) Config {
	if c.Lease <= 0 {
		c.Lease = DefaultLease
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * c.Lease
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4 * workers
		if c.MaxAttempts < 8 {
			c.MaxAttempts = 8
		}
	}
	if c.MaxDuplicates <= 0 {
		c.MaxDuplicates = DefaultMaxDuplicates
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	return c
}

// task is one content-addressed job's dispatch state. All fields are
// guarded by Coordinator.mu.
type task struct {
	key      string
	job      serve.JobRequest // normalized
	attempts int
	inflight int
	stolen   bool
	done     bool
	failed   bool
	lastErr  string
	result   *Result
	jitter   uint64 // per-job seeded jitter stream (pool.MixSeed)
}

// queue is the unbounded dispatch queue. Unbounded is correct here: its
// population is at most jobs × MaxDuplicates, already bounded by the
// campaign itself, and a bounded queue would deadlock steal timers
// against runners.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*task
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(t *task) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, t)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

func (q *queue) pop() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	t := q.items[0]
	q.items = q.items[1:]
	return t, true
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.items = nil
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Coordinator drives one campaign across the fleet.
type Coordinator struct {
	cfg     Config
	reg     *Registry
	cache   *artifact.Store[Result]
	journal *Journal
	q       *queue

	mu        sync.Mutex
	tasks     map[string]*task
	order     []string // deduped spec order
	remaining int
	doneCh    chan struct{}

	dispatched    atomic.Uint64
	steals        atomic.Uint64
	dupDeliveries atomic.Uint64
	dupMismatches atomic.Uint64
	restored      atomic.Uint64
	corruptReply  atomic.Uint64
}

// New builds a coordinator over the given workers.
func New(cfg Config, workers []WorkerClient) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, errors.New("campaign: no workers")
	}
	cfg = cfg.filled(len(workers))
	// The result cache: a hit is load-bearing for the resume guarantee —
	// after `lpcoord -resume`, hits equal the previously completed jobs and
	// dispatches only the remainder.
	cache, err := artifact.NewStore(cfg.CacheDir, func(key string, r *Result) bool {
		return r.Key == key && r.Res != nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: cache dir: %w", err)
	}
	return &Coordinator{
		cfg:    cfg,
		reg:    NewRegistry(workers, cfg.Breaker),
		cache:  cache,
		q:      newQueue(),
		tasks:  make(map[string]*task),
		doneCh: make(chan struct{}),
	}, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log(format, args...)
	}
}

// Run executes the campaign to completion (every job completed or
// failed terminally) or until ctx is canceled. It is a one-shot: build a
// fresh Coordinator per campaign. Resume is implicit: with a JournalPath
// configured, results recorded by a previous (killed) run are restored
// and their jobs never re-dispatched.
func (c *Coordinator) Run(ctx context.Context, spec Spec) (*Report, error) {
	if len(spec.Jobs) == 0 {
		return nil, errors.New("campaign: empty spec")
	}

	// Build the task set: canonicalize, key, collapse duplicate keys. A
	// spec no worker can run fails the campaign before any dispatch.
	for i, j := range spec.Jobs {
		n, err := serve.Canonical(j)
		if err != nil {
			return nil, fmt.Errorf("campaign: job %d: %w", i, err)
		}
		n.ID, n.DeadlineMS = "", 0 // per-request plumbing, not part of the job
		key := KeyTagged(c.cfg.Tag, n)
		if _, ok := c.tasks[key]; ok {
			continue
		}
		c.tasks[key] = &task{key: key, job: n,
			jitter: pool.MixSeed(c.cfg.Seed, uint64(len(c.order)))}
		c.order = append(c.order, key)
	}
	c.remaining = len(c.order)

	// Restore: journal first (crash log of a killed coordinator), then
	// the cache pre-pass — restored results are seeded, so every job the
	// previous run completed resolves as a cache hit, not a dispatch. Only
	// entries keyed as one of this campaign's tasks are seeded: another
	// campaign's (another tag or spec) are never looked up.
	if c.cfg.JournalPath != "" {
		j, entries, err := OpenJournal(c.cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		c.journal = j
		defer c.journal.Close()
		var restored uint64
		for _, r := range entries {
			if _, ok := c.tasks[r.Key]; ok {
				c.cache.Seed(r.Key, r)
				restored++
			}
		}
		c.restored.Store(restored)
		if restored > 0 {
			c.logf("campaign: restored %d completed jobs from %s", restored, c.cfg.JournalPath)
		}
	}
	var pending []*task
	for _, key := range c.order {
		t := c.tasks[key]
		if r, ok := c.cache.Get(key); ok {
			t.done = true
			t.result = r
			c.remaining--
			continue
		}
		pending = append(pending, t)
	}

	if c.remaining > 0 {
		rctx, cancel := context.WithCancel(ctx)
		defer cancel()
		for _, t := range pending {
			c.q.push(t)
		}
		// Dispatch concurrency is each worker's advertised slots: one
		// synchronous probe pass sizes the fleet before any claim goes
		// out, and every later pass re-fits it.
		var wg sync.WaitGroup
		probeTimeout := c.cfg.ProbeInterval / 2
		c.reg.Probe(rctx, probeTimeout)
		c.fit(rctx, &wg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(c.cfg.ProbeInterval)
			defer tick.Stop()
			for {
				select {
				case <-rctx.Done():
					return
				case <-tick.C:
					c.reg.Probe(rctx, probeTimeout)
					c.fit(rctx, &wg)
				}
			}
		}()
		select {
		case <-c.doneCh:
		case <-ctx.Done():
		}
		cancel()
		c.q.close()
		wg.Wait()
	}

	rep := c.report()
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// fit starts a runner for every slot of every worker that has none; the
// runners above a shrunk slot count retire themselves (Worker.keep).
func (c *Coordinator) fit(ctx context.Context, wg *sync.WaitGroup) {
	for _, w := range c.reg.Workers() {
		for _, i := range w.vacant() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.runner(ctx, w, i)
			}()
		}
	}
}

// runner i of worker w is one dispatch loop: while it fits w's slots, pop
// a job, gate it on the worker's breaker, dispatch. A gated job is
// re-enqueued after a short delay so a healthy worker's runner picks it
// up instead.
func (c *Coordinator) runner(ctx context.Context, w *Worker, i int) {
	gateDelay := c.cfg.Lease / 4
	if gateDelay <= 0 || gateDelay > 250*time.Millisecond {
		gateDelay = 250 * time.Millisecond
	}
	for w.keep(i) {
		t, ok := c.q.pop()
		if !ok || ctx.Err() != nil {
			return
		}
		c.mu.Lock()
		skip := t.done
		c.mu.Unlock()
		if skip {
			continue
		}
		if !w.keep(i) {
			// The worker went down or shrank while this runner waited:
			// hand the job straight to a runner that still fits.
			c.q.push(t)
			return
		}
		if err := w.breaker.Allow(); err != nil {
			c.pushAfter(t, gateDelay)
			continue
		}
		c.dispatch(ctx, w, t)
	}
}

func (c *Coordinator) pushAfter(t *task, d time.Duration) {
	time.AfterFunc(d, func() { c.q.push(t) })
}

// dispatch sends one leased claim to w and classifies the outcome.
func (c *Coordinator) dispatch(ctx context.Context, w *Worker, t *task) {
	c.mu.Lock()
	if t.done || t.inflight >= c.cfg.MaxDuplicates || t.attempts >= c.cfg.MaxAttempts {
		exhausted := !t.done && t.inflight == 0 && t.attempts >= c.cfg.MaxAttempts
		if exhausted {
			c.failLocked(t)
		}
		c.mu.Unlock()
		w.breaker.Forget()
		return
	}
	t.attempts++
	attempt := t.attempts
	t.inflight++
	stolenDispatch := t.stolen
	c.mu.Unlock()
	c.dispatched.Add(1)

	// Arm the lease: if this dispatch has not completed when it expires,
	// the job goes back on the queue for another worker — the straggler
	// keeps running, and whichever finishes first wins.
	stealTimer := time.AfterFunc(c.cfg.Lease, func() { c.steal(t) })
	cctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	out, err := w.client.Claim(cctx, t.key, c.cfg.Lease.Milliseconds(), t.job)
	cancel()
	stealTimer.Stop()

	c.mu.Lock()
	t.inflight--
	c.mu.Unlock()

	switch {
	case err != nil:
		if errors.Is(err, ErrCorrupt) {
			c.corruptReply.Add(1)
		}
		w.breaker.Done(false)
		c.retryLater(t, attempt, fmt.Sprintf("%s: %v", w.Name(), err))
	case out.Status == http.StatusOK && out.Result != nil:
		w.breaker.Done(true)
		c.complete(t, out.Result, w.Name(), stolenDispatch)
	case out.Status == http.StatusBadRequest ||
		out.Status == http.StatusNotFound || out.Status == http.StatusMethodNotAllowed:
		// The worker is healthy; the job (or our protocol) is bad.
		// Retrying the same bytes cannot help.
		w.breaker.Done(true)
		c.failPermanent(t, fmt.Sprintf("%s: %s: %s", w.Name(), out.Outcome, out.Err))
	default:
		// 429 storms, breaker sheds, timeouts, 5xx: the worker is
		// overloaded or broken — count it against its breaker, back off,
		// retry elsewhere.
		w.breaker.Done(false)
		c.retryLater(t, attempt, fmt.Sprintf("%s: %d %s: %s", w.Name(), out.Status, out.Outcome, out.Err))
	}
}

// steal fires when a lease expires with the dispatch still in flight:
// the job is re-enqueued (bounded by MaxDuplicates at dispatch time)
// so another worker can race the straggler.
func (c *Coordinator) steal(t *task) {
	c.mu.Lock()
	if t.done || t.inflight == 0 || t.inflight >= c.cfg.MaxDuplicates {
		c.mu.Unlock()
		return
	}
	t.stolen = true
	c.mu.Unlock()
	c.steals.Add(1)
	c.q.push(t)
}

// retryLater re-enqueues t after its seeded full-jitter backoff, or
// declares it failed once the attempt budget is spent with nothing in
// flight. It is the system's one retry loop: a worker runs a job once
// and its region sweep simulates each region once, so every retry is a
// fresh dispatch that any worker, the failed one included, may pop.
func (c *Coordinator) retryLater(t *task, attempt int, reason string) {
	c.mu.Lock()
	if t.done {
		c.mu.Unlock()
		return
	}
	t.lastErr = reason
	if t.attempts >= c.cfg.MaxAttempts && t.inflight == 0 {
		c.failLocked(t)
		c.mu.Unlock()
		return
	}
	delay := pool.BackoffDelay(c.cfg.Backoff, c.cfg.MaxBackoff, attempt, &t.jitter)
	c.mu.Unlock()
	c.logf("campaign: retrying %s (attempt %d) in %v: %s", t.key, attempt, delay, reason)
	c.pushAfter(t, delay)
}

// complete records the first delivery of t's result and resolves late
// duplicates first-complete-wins: a duplicate is byte-compared against
// the winner's canonical bytes — a mismatch means a determinism bug (or
// corruption the checksum missed) and is counted, never recorded.
func (c *Coordinator) complete(t *task, res *serve.JobResult, worker string, stolen bool) {
	r := &Result{Key: t.key, Job: t.job, Res: CanonicalResult(t.key, res),
		Worker: worker, Stolen: stolen}
	c.mu.Lock()
	if t.done {
		prev := t.result
		c.mu.Unlock()
		c.dupDeliveries.Add(1)
		a, errA := r.CanonicalBytes()
		b, errB := prev.CanonicalBytes()
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			c.dupMismatches.Add(1)
			c.logf("campaign: DUPLICATE MISMATCH for %s: %s vs %s", t.key, worker, prev.Worker)
		}
		return
	}
	t.done = true
	r.Attempts = t.attempts
	t.result = r
	c.mu.Unlock()

	if c.journal != nil {
		if err := c.journal.Append(r); err != nil {
			c.logf("campaign: journal append %s: %v", t.key, err)
		}
	}
	if err := c.cache.Put(r.Key, r); err != nil {
		c.logf("campaign: cache store %s: %v", t.key, err)
	}
	c.settle()
}

func (c *Coordinator) failPermanent(t *task, reason string) {
	c.mu.Lock()
	if t.done {
		c.mu.Unlock()
		return
	}
	t.lastErr = reason
	c.failLocked(t)
	c.mu.Unlock()
}

// failLocked marks t terminally failed; callers hold c.mu.
func (c *Coordinator) failLocked(t *task) {
	t.done = true
	t.failed = true
	c.logf("campaign: FAILED %s after %d attempts: %s", t.key, t.attempts, t.lastErr)
	c.remaining--
	if c.remaining == 0 {
		close(c.doneCh)
	}
}

func (c *Coordinator) settle() {
	c.mu.Lock()
	c.remaining--
	if c.remaining == 0 {
		close(c.doneCh)
	}
	c.mu.Unlock()
}
