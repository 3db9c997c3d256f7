// Package serve is the request-serving resilience layer: it turns the
// batch sampling pipeline (harness.Evaluator, core.SimulateRegions*,
// internal/pool) into a long-lived daemon that stays up under load and
// failure. The stack is the standard serving shape — admission control
// with a bounded queue and explicit load shedding (429 + Retry-After),
// a per-job-class circuit breaker (closed/open/half-open under an
// injected clock), per-request deadlines propagated as contexts through
// every layer below, and graceful drain on SIGTERM: stop admitting,
// finish in-flight work up to a drain deadline, then cancel the rest and
// answer every request with its own disposition. Shutdown is crash-only:
// a stop keeps nothing a kill would not — the evaluator's -progress-dir
// state — and the caller resubmits what was not answered with a result.
// A job runs once: a failure is answered as it is, and the campaign
// coordinator retries it on another worker (DESIGN.md §9).
// DESIGN.md §11 states the invariants; cmd/lpserved is the binary.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"looppoint/internal/core"
	"looppoint/internal/omp"
	"looppoint/internal/pool"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

// Job classes. Each gets its own circuit breaker: a failing full-report
// dependency must not stop cheap analyses from serving.
const (
	ClassAnalyze = "analyze" // profile + cluster + select, no timing simulation
	ClassReport  = "report"  // sampled simulation and extrapolation, plus the full run when Full is set
)

// JobClasses lists every class the server admits.
var JobClasses = []string{ClassAnalyze, ClassReport}

// coreModels is every core model a job may name.
var coreModels = map[string]timing.CoreKind{"ooo": timing.OOO, "inorder": timing.InOrder}

// Serving defaults.
const (
	DefaultQueueDepthFactor = 2                // queue depth = factor × max-inflight
	DefaultDeadline         = 2 * time.Minute  // per-request deadline when the client sets none
	DefaultMaxDeadline      = 10 * time.Minute // cap on client-requested deadlines
	DefaultDrainDeadline    = 30 * time.Second // SIGTERM → cancellation bound
)

// ErrDraining rejects work because the server is shutting down.
var ErrDraining = errors.New("serve: draining, not admitting jobs")

// ErrBadJob marks a spec no run can satisfy: the server answers it 400,
// neutral for the breaker, and lpcoord fails the job without a retry.
var ErrBadJob = errors.New("serve: bad job")

func badJob(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadJob, fmt.Sprintf(format, args...))
}

// TimeoutError is the typed deadline failure: the job did not finish
// within its per-request deadline, either because it never left the
// queue ("queued") or because the work itself ran long ("running").
type TimeoutError struct {
	Phase    string
	Deadline time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("serve: job deadline %v exceeded while %s", e.Deadline, e.Phase)
}

// JobRequest is the JSON body of POST /v1/jobs.
type JobRequest struct {
	// ID is the client's correlation id (a server id is minted if empty).
	ID string `json:"id,omitempty"`
	// Class selects the pipeline: analyze or report.
	Class string `json:"class"`
	// App names the workload (e.g. "603.bwaves_s.1", "npb-cg").
	App string `json:"app"`
	// Input is the input class (test, train, ref, A, C, D; default train).
	Input string `json:"input,omitempty"`
	// Threads is the thread count (0: the workload's default).
	Threads int `json:"threads,omitempty"`
	// Policy is the OMP wait policy: "passive" (default) or "active".
	Policy string `json:"policy,omitempty"`
	// Core selects the core model: "ooo" (default) or "inorder".
	Core string `json:"core,omitempty"`
	// Full additionally runs the whole-program simulation for error
	// reporting (report class only).
	Full bool `json:"full,omitempty"`
	// DeadlineMS is the client's deadline for the whole request,
	// including queue wait (0: server default; capped at the server max).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// JobResult is the success payload of POST /v1/jobs.
type JobResult struct {
	ID      string `json:"id"`
	Class   string `json:"class"`
	App     string `json:"app"`
	Summary string `json:"summary"`

	Regions int `json:"regions"`
	Points  int `json:"points"`

	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	PredictedCycles  float64 `json:"predicted_cycles,omitempty"`
	RuntimeErrPct    float64 `json:"runtime_err_pct,omitempty"`

	// Filled by the server.
	QueueWaitMS int64 `json:"queue_wait_ms"`
	RunMS       int64 `json:"run_ms"`
}

// RunFunc executes one admitted job under its deadline context.
type RunFunc func(ctx context.Context, req *JobRequest) (*JobResult, error)

// Config tunes the server. Zero values take the defaults above.
type Config struct {
	// MaxInflight bounds concurrently running jobs (0: one per CPU).
	MaxInflight int
	// QueueDepth bounds admitted-but-waiting jobs; beyond it requests are
	// shed with 429 (0: DefaultQueueDepthFactor × MaxInflight).
	QueueDepth int
	// DefaultDeadline applies when the client sets none.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines.
	MaxDeadline time.Duration
	// DrainDeadline bounds Drain: in-flight work past it is cancelled
	// instead of awaited forever.
	DrainDeadline time.Duration
	// Breaker configures every class's circuit breaker (each class gets
	// its own instance).
	Breaker BreakerOpts
	// Progress, when set, is the shared durable-progress counter sink the
	// evaluations below report into (core.Config.Progress). The server
	// only reads it: /v1/stats exposes the totals and each job's log line
	// carries the deltas observed while that job ran.
	Progress *core.ProgressStats
	// Log receives the structured per-request lines (nil: discard).
	Log io.Writer
	// Now is the injected clock for queue-wait/run-time measurement
	// (nil: time.Now). The breaker clock is Breaker.Now.
	Now func() time.Time
}

func (c Config) fill() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = pool.DefaultWidth()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepthFactor * c.MaxInflight
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = DefaultDeadline
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = DefaultMaxDeadline
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = DefaultDrainDeadline
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// jobDone carries one job's terminal state from worker to handler.
type jobDone struct {
	res  *JobResult
	err  error
	wait time.Duration
	run  time.Duration
	// prog is the pre-rendered durable-progress delta observed while this
	// job ran (empty without Config.Progress), appended to the log line.
	prog string
}

// job is one admitted request in flight through the queue.
type job struct {
	id       uint64
	req      *JobRequest
	ctx      context.Context
	cancel   context.CancelFunc
	deadline time.Duration
	breaker  *Breaker
	enq      time.Time
	started  atomic.Bool
	done     chan jobDone // buffered 1: the worker never blocks on a gone handler
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Admitted    uint64 `json:"admitted"`
	Claims      uint64 `json:"claims"`
	ClaimDedups uint64 `json:"claim_dedups"`
	Completed   uint64 `json:"completed"`
	Errors      uint64 `json:"errors"`
	Timeouts    uint64 `json:"timeouts"`
	ShedQueue   uint64 `json:"shed_queue"`
	ShedBreaker uint64 `json:"shed_breaker"`
	ShedDrain   uint64 `json:"shed_drain"`

	// Durable-progress counters (zero unless Config.Progress is set):
	// saves (one per analysis recovery point, one per stored region),
	// failed saves, successful crash recoveries, the work those recoveries
	// skipped (the recording's schedule steps for a resumed analysis,
	// instructions of regions served from the store), and
	// recovery-ladder falls (progress files rejected as torn/corrupt).
	ProgressSaves        uint64 `json:"progress_saves"`
	ProgressSaveFailures uint64 `json:"progress_save_failures"`
	Recoveries           uint64 `json:"recoveries"`
	RecoveryStepsSaved   uint64 `json:"recovery_steps_saved"`
	LadderFalls          uint64 `json:"ladder_falls"`

	Inflight  int64 `json:"inflight"`
	HighWater int64 `json:"high_water"`
	Queued    int   `json:"queued"`

	Draining bool                    `json:"draining"`
	Breakers map[string]BreakerState `json:"breakers"`
	Trips    map[string]uint64       `json:"breaker_trips"`
}

// DrainStats reports what Drain did.
type DrainStats struct {
	Clean         bool // every admitted job finished within the deadline
	LeakedWorkers int  // workers still stuck in CPU-bound work at exit
}

// Server is the resilient job-serving daemon core. Build with New,
// start the worker pool with Start, mount Handler on an http.Server,
// and call Drain exactly once on shutdown.
type Server struct {
	cfg      Config
	run      RunFunc
	breakers map[string]*Breaker

	jobs     chan *job
	accepted sync.WaitGroup // admitted jobs not yet terminal
	workers  sync.WaitGroup
	// baseCtx is the server-scoped cancellation Drain fires: it stops the
	// workers and cancels every admitted job's context.
	baseCtx  context.Context
	baseStop context.CancelFunc

	draining atomic.Bool
	seq      atomic.Uint64

	inflight  atomic.Int64
	highWater atomic.Int64

	admitted, completed, errsN, timeouts atomic.Uint64
	shedQueue, shedBreaker, shedDrain    atomic.Uint64
	claims, claimDedups                  atomic.Uint64

	claimMu     sync.Mutex
	claimFlight map[string]*claimEntry

	logMu sync.Mutex
}

// New builds a server around run. Call Start before serving requests.
func New(cfg Config, run RunFunc) *Server {
	cfg = cfg.fill()
	s := &Server{
		cfg:         cfg,
		run:         run,
		breakers:    make(map[string]*Breaker, len(JobClasses)),
		jobs:        make(chan *job, cfg.QueueDepth),
		claimFlight: make(map[string]*claimEntry),
	}
	for _, class := range JobClasses {
		s.breakers[class] = NewBreaker(class, cfg.Breaker)
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	return s
}

// Start launches the MaxInflight worker goroutines.
func (s *Server) Start() {
	for w := 0; w < s.cfg.MaxInflight; w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				select {
				case <-s.baseCtx.Done():
					return
				case j := <-s.jobs:
					s.runOne(j)
				}
			}
		}()
	}
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Admitted:    s.admitted.Load(),
		Claims:      s.claims.Load(),
		ClaimDedups: s.claimDedups.Load(),
		Completed:   s.completed.Load(),
		Errors:      s.errsN.Load(),
		Timeouts:    s.timeouts.Load(),
		ShedQueue:   s.shedQueue.Load(),
		ShedBreaker: s.shedBreaker.Load(),
		ShedDrain:   s.shedDrain.Load(),
		Inflight:    s.inflight.Load(),
		HighWater:   s.highWater.Load(),
		Queued:      len(s.jobs),
		Draining:    s.draining.Load(),
		Breakers:    make(map[string]BreakerState, len(s.breakers)),
		Trips:       make(map[string]uint64, len(s.breakers)),
	}
	for class, b := range s.breakers {
		st.Breakers[class] = b.State()
		st.Trips[class] = b.Trips()
	}
	st.ProgressSaves, st.ProgressSaveFailures, st.Recoveries,
		st.RecoveryStepsSaved, st.LadderFalls = s.cfg.Progress.Snapshot()
	return st
}

// Handler returns the HTTP API: GET /healthz (liveness only), GET
// /readyz (admission readiness, and slots: the MaxInflight jobs the
// server runs at once, which a coordinator keeps in flight to it), GET
// /v1/stats (the one counter snapshot, for operators, coordinators and
// drills) and the two wire forms of the one submit path — POST /v1/jobs
// (a bare job spec in, the job's own payload out) and POST /v1/claim
// (claim.go: a keyed, leased spec in, one checksummed envelope out). The
// method patterns make the mux answer a wrong method on those routes with
// 405 and an Allow header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "slots": s.cfg.MaxInflight})
	})
	mux.HandleFunc("POST /v1/jobs", s.handleJob)
	mux.HandleFunc("POST /v1/claim", s.handleClaim)
	return mux
}

// errorBody is the JSON envelope for every non-200 job response.
type errorBody struct {
	Outcome      string `json:"outcome"`
	Error        string `json:"error"`
	Timeout      bool   `json:"timeout,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	Breaker      string `json:"breaker,omitempty"`
}

// jobOutcome is one job's HTTP-renderable terminal state: a success
// payload or a typed error body plus status. /v1/jobs writes it as the
// whole response; /v1/claim wraps it in its keyed envelope.
type jobOutcome struct {
	status int
	res    *JobResult // non-nil on success (status 200)
	errB   errorBody
}

func badRequest(msg string) jobOutcome {
	return jobOutcome{status: http.StatusBadRequest, errB: errorBody{Outcome: "bad_request", Error: msg}}
}

// respond writes one outcome's status, Retry-After hint and JSON body.
func respond(w http.ResponseWriter, o jobOutcome, body any) {
	if o.errB.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(time.Duration(o.errB.RetryAfterMS)*time.Millisecond))
	}
	writeJSON(w, o.status, body)
}

// decodeBody reads one wire form's JSON body into v; a body that does not
// parse yields that form's bad_request outcome and false.
func decodeBody(r *http.Request, v any) (jobOutcome, bool) {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v); err != nil {
		return badRequest("bad JSON: " + err.Error()), false
	}
	return jobOutcome{}, true
}

// Canonical is the one reading of a job spec, run before a job is
// admitted or keyed. It rejects what no worker can run with an ErrBadJob
// and spells out the defaults (train, passive, ooo), so an implicit
// default and the explicit one are one job. ID, DeadlineMS and a thread
// count of 0 (the workload's default) pass through.
func Canonical(j JobRequest) (JobRequest, error) {
	if !slices.Contains(JobClasses, j.Class) {
		return j, badJob("unknown class %q (want one of %v)", j.Class, JobClasses)
	}
	if j.App == "" {
		return j, badJob("missing app")
	}
	if j.Threads < 0 {
		return j, badJob("negative thread count %d", j.Threads)
	}
	j.Input = cmp.Or(j.Input, string(workloads.InputTrain))
	if err := workloads.InputClass(j.Input).Check(); err != nil {
		return j, badJob("%v", err)
	}
	j.Policy = cmp.Or(j.Policy, omp.Passive.String())
	if _, err := omp.ParseWaitPolicy(j.Policy); err != nil {
		return j, badJob("%v", err)
	}
	j.Core = cmp.Or(j.Core, timing.OOO.String())
	if _, ok := coreModels[j.Core]; !ok {
		return j, badJob("unknown core model %q (want ooo or inorder)", j.Core)
	}
	return j, nil
}

// submit is the one way into a worker — Canonical, admit, await — and
// returns the job's terminal outcome. Both wire forms decode into it.
func (s *Server) submit(ctx context.Context, req *JobRequest) jobOutcome {
	c, err := Canonical(*req)
	if err != nil {
		return badRequest(err.Error())
	}
	j, shed := s.admit(ctx, &c)
	if shed != nil {
		return *shed
	}
	return s.awaitJob(j)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	o, ok := decodeBody(r, &req)
	if ok {
		o = s.submit(r.Context(), &req)
	}
	if o.res != nil {
		respond(w, o, o.res)
		return
	}
	respond(w, o, o.errB)
}

// admit runs the admission dance for one canonical job, in shed-priority
// order: drain beats breaker beats queue. On success the job is queued
// and the caller must consume it with awaitJob (which releases the
// deadline context and its tie to Drain's cancellation); a non-nil jobOutcome means the job was shed and
// nothing was enqueued. The accepted.Add happens before the draining
// re-check so Drain's Wait provably covers every job that can still
// reach the queue.
func (s *Server) admit(httpCtx context.Context, req *JobRequest) (*job, *jobOutcome) {
	j := &job{id: s.seq.Add(1), req: req, deadline: s.cfg.DefaultDeadline,
		breaker: s.breakers[req.Class], done: make(chan jobDone, 1)}
	if req.ID == "" {
		req.ID = fmt.Sprintf("job-%d", j.id)
	}
	if req.DeadlineMS > 0 {
		j.deadline = min(time.Duration(req.DeadlineMS)*time.Millisecond, s.cfg.MaxDeadline)
	}
	drained := errorBody{Outcome: "shed_drain", Error: ErrDraining.Error()}

	if s.draining.Load() {
		return s.shed(j, &s.shedDrain, http.StatusServiceUnavailable, drained)
	}
	if err := j.breaker.Allow(); err != nil {
		var open *BreakerOpenError
		errors.As(err, &open)
		return s.shed(j, &s.shedBreaker, http.StatusServiceUnavailable, errorBody{
			Outcome: "shed_breaker", Error: err.Error(),
			RetryAfterMS: open.RetryAfter.Milliseconds(), Breaker: open.State.String(),
		})
	}

	ctx, cancel := context.WithTimeout(httpCtx, j.deadline)
	detach := context.AfterFunc(s.baseCtx, cancel) // Drain cancels every admitted job
	j.ctx, j.cancel = ctx, func() { detach(); cancel() }
	j.enq = s.cfg.Now()
	s.accepted.Add(1)
	if !s.draining.Load() { // the re-check: Drain may have begun since the first
		select {
		case s.jobs <- j:
			s.admitted.Add(1)
			return j, nil
		default:
		}
	}
	// Raced with Drain or the queue is full: undo, and shed explicitly
	// instead of queuing unboundedly.
	s.accepted.Done()
	j.cancel()
	j.breaker.Forget()
	if s.draining.Load() {
		return s.shed(j, &s.shedDrain, http.StatusServiceUnavailable, drained)
	}
	return s.shed(j, &s.shedQueue, http.StatusTooManyRequests, errorBody{
		Outcome: "shed_queue", Error: "job queue full", RetryAfterMS: (s.cfg.DefaultDeadline / 4).Milliseconds(),
	})
}

// shed counts, logs and renders one refused admission.
func (s *Server) shed(j *job, counter *atomic.Uint64, status int, eb errorBody) (*job, *jobOutcome) {
	counter.Add(1)
	s.logLine(j, eb.Outcome, jobDone{}, errors.New(eb.Error))
	return nil, &jobOutcome{status: status, errB: eb}
}

// awaitJob blocks until an admitted job reaches a terminal state and
// classifies it. Exactly one awaitJob call must follow each successful
// admit.
func (s *Server) awaitJob(j *job) jobOutcome {
	defer j.cancel()
	br := j.breaker
	select {
	case d := <-j.done:
		return s.finishOutcome(j, d)
	case <-j.ctx.Done():
		// Deadline, drain, or client gone while the worker still owns the
		// job. A terminal state may have raced in just before the wakeup
		// (drain cancels the context it is about to answer) — prefer it.
		select {
		case d := <-j.done:
			return s.finishOutcome(j, d)
		default:
		}
		phase := "queued"
		if j.started.Load() {
			phase = "running"
		}
		wait := s.cfg.Now().Sub(j.enq)
		if errors.Is(j.ctx.Err(), context.DeadlineExceeded) {
			terr := &TimeoutError{Phase: phase, Deadline: j.deadline}
			s.timeouts.Add(1)
			br.Done(false) // a dependency answering late is a failing dependency
			s.logLine(j, "timeout", jobDone{wait: wait}, terr)
			return jobOutcome{status: http.StatusGatewayTimeout,
				errB: errorBody{Outcome: "timeout", Error: terr.Error(), Timeout: true}}
		}
		if s.draining.Load() {
			// Drain cancelled the job; its terminal state (drained for a
			// flushed queued job, canceled for an interrupted running one)
			// arrives as soon as the worker observes the cancellation.
			// Bounded wait so a cancellation-deaf RunFunc cannot wedge the
			// handler past the drain window.
			t := time.NewTimer(s.cfg.DrainDeadline)
			defer t.Stop()
			select {
			case d := <-j.done:
				return s.finishOutcome(j, d)
			case <-t.C:
				br.Forget()
				s.logLine(j, "drained", jobDone{wait: wait}, ErrDraining)
				return jobOutcome{status: http.StatusServiceUnavailable,
					errB: errorBody{Outcome: "drained", Error: ErrDraining.Error()}}
			}
		}
		// Client disconnected: outcome unknowable, neutral for the breaker.
		// The response body goes nowhere on a real disconnect, but duplicate
		// claims attached to this execution (claim.go) still read it.
		br.Forget()
		s.logLine(j, "canceled", jobDone{wait: wait}, j.ctx.Err())
		return jobOutcome{status: http.StatusServiceUnavailable,
			errB: errorBody{Outcome: "canceled", Error: j.ctx.Err().Error()}}
	}
}

// finishOutcome classifies a worker-delivered terminal state.
func (s *Server) finishOutcome(j *job, d jobDone) jobOutcome {
	br := j.breaker
	switch {
	case d.err == nil:
		s.completed.Add(1)
		br.Done(true)
		d.res.QueueWaitMS = d.wait.Milliseconds()
		d.res.RunMS = d.run.Milliseconds()
		s.logLine(j, "ok", d, nil)
		return jobOutcome{status: http.StatusOK, res: d.res}
	case errors.Is(d.err, ErrDraining):
		// Flushed by Drain before it ran: not a dependency failure.
		s.shedDrain.Add(1)
		br.Forget()
		s.logLine(j, "drained", d, d.err)
		return jobOutcome{status: http.StatusServiceUnavailable,
			errB: errorBody{Outcome: "drained", Error: d.err.Error()}}
	case errors.Is(d.err, context.DeadlineExceeded):
		terr := &TimeoutError{Phase: "running", Deadline: j.deadline}
		s.timeouts.Add(1)
		br.Done(false)
		s.logLine(j, "timeout", d, terr)
		return jobOutcome{status: http.StatusGatewayTimeout,
			errB: errorBody{Outcome: "timeout", Error: terr.Error(), Timeout: true}}
	case errors.Is(d.err, context.Canceled):
		br.Forget()
		s.logLine(j, "canceled", d, d.err)
		return jobOutcome{status: http.StatusServiceUnavailable,
			errB: errorBody{Outcome: "canceled", Error: d.err.Error()}}
	case errors.Is(d.err, ErrBadJob):
		// The spec, not the dependency, is at fault: no run can succeed.
		s.errsN.Add(1)
		br.Forget()
		s.logLine(j, "bad_request", d, d.err)
		return badRequest(d.err.Error())
	default:
		s.errsN.Add(1)
		br.Done(false)
		s.logLine(j, "error", d, d.err)
		return jobOutcome{status: http.StatusInternalServerError,
			errB: errorBody{Outcome: "error", Error: d.err.Error()}}
	}
}

// runOne executes one dequeued job on the calling worker goroutine.
func (s *Server) runOne(j *job) {
	defer s.accepted.Done()
	wait := s.cfg.Now().Sub(j.enq)
	if err := j.ctx.Err(); err != nil {
		// Deadline spent in the queue; never start doomed work.
		j.done <- jobDone{err: err, wait: wait}
		return
	}
	j.started.Store(true)
	cur := s.inflight.Add(1)
	for {
		hw := s.highWater.Load()
		if cur <= hw || s.highWater.CompareAndSwap(hw, cur) {
			break
		}
	}
	start := s.cfg.Now()
	var saves0, fails0, recov0, steps0 uint64
	if s.cfg.Progress != nil {
		saves0, fails0, recov0, steps0, _ = s.cfg.Progress.Snapshot()
	}
	res, err := s.executeJob(j.ctx, j.req)
	// The counters are shared across workers, so under concurrency the
	// delta attributes overlapping jobs' progress to each of them — an
	// observability aid, not an exact per-job ledger.
	prog := ""
	if s.cfg.Progress != nil {
		saves, fails, recov, steps, _ := s.cfg.Progress.Snapshot()
		prog = fmt.Sprintf(" progress_saves=%d progress_save_failures=%d recoveries=%d steps_saved=%d",
			saves-saves0, fails-fails0, recov-recov0, steps-steps0)
	}
	s.inflight.Add(-1)
	j.done <- jobDone{res: res, err: err, wait: wait, run: s.cfg.Now().Sub(start), prog: prog}
}

// executeJob runs the job once, panic-protected. A failure — a panic
// included, as a *pool.PanicError — is the job's answer: the job is a
// deterministic function of its spec, so a second run in place would fail
// the same way, and the coordinator retries on another worker.
func (s *Server) executeJob(ctx context.Context, req *JobRequest) (*JobResult, error) {
	return pool.Protect(func() (*JobResult, error) { return s.run(ctx, req) })
}

// Drain performs graceful shutdown: stop admitting, wait for admitted
// jobs up to DrainDeadline, then answer the ones still queued as drained,
// cancel the ones still running, and stop the workers. Every request gets
// its own answer; nothing is written. What outlives the process is what a
// kill would leave too — completed evaluations in the evaluator's resume
// store, partial ones in its durable progress — and the caller
// resubmits a drained or canceled job.
func (s *Server) Drain() DrainStats {
	s.draining.Store(true)
	var st DrainStats

	allDone := make(chan struct{})
	go func() {
		s.accepted.Wait()
		close(allDone)
	}()
	timer := time.NewTimer(s.cfg.DrainDeadline)
	defer timer.Stop()
	select {
	case <-allDone:
		st.Clean = true
	case <-timer.C:
	}

	// Answer queued jobs before the cancellation reaches them: with a
	// cancellation-deaf runner wedging every worker, nothing else would
	// answer them before the listener shuts down.
	s.flushQueued()
	// Cancel every admitted job and stop the workers; give running jobs a
	// short grace to observe cancellation at a region boundary.
	s.baseStop()
	grace := time.NewTimer(s.cfg.DrainDeadline / 4)
	defer grace.Stop()
	select {
	case <-allDone:
	case <-grace.C:
	}
	// A racing admitter may have slipped one more job into the queue
	// after the first sweep; sweep again so nothing is stranded.
	s.flushQueued()

	workersDone := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(workersDone)
	}()
	stuck := time.NewTimer(s.cfg.DrainDeadline / 4)
	defer stuck.Stop()
	select {
	case <-workersDone:
	case <-stuck.C:
		// CPU-bound work that has not reached a cancellation point yet;
		// the process is exiting anyway, so report rather than hang.
		st.LeakedWorkers = int(s.inflight.Load())
	}
	s.logf("drain: clean=%v leaked=%d", st.Clean, st.LeakedWorkers)
	return st
}

// flushQueued empties the queue, finishing each job as drained.
func (s *Server) flushQueued() {
	for {
		select {
		case j := <-s.jobs:
			j.cancel()
			j.done <- jobDone{err: ErrDraining, wait: s.cfg.Now().Sub(j.enq)}
			s.accepted.Done()
		default:
			return
		}
	}
}

// logLine emits the structured per-request line: one line per request,
// logfmt-shaped, carrying everything an operator greps for. d supplies
// the timings a worker delivered (zero for a job that never ran) and the
// durable-progress delta observed while the job ran.
func (s *Server) logLine(j *job, outcome string, d jobDone, err error) {
	if s.cfg.Log == nil {
		return
	}
	errStr := ""
	if err != nil {
		errStr = fmt.Sprintf(" err=%q", err.Error())
	}
	s.logf("job=%d id=%q class=%s app=%s outcome=%s queue_wait=%s run=%s breaker=%s%s%s",
		j.id, j.req.ID, j.req.Class, j.req.App, outcome,
		d.wait.Round(time.Microsecond), d.run.Round(time.Microsecond), j.breaker.State(), d.prog, errStr)
}

// logf serializes writer access so concurrent requests do not interleave
// partial lines.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.cfg.Log, "ts=%s ", s.cfg.Now().UTC().Format(time.RFC3339Nano))
	fmt.Fprintf(s.cfg.Log, format+"\n", args...)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds renders a Retry-After header value, rounding up so a
// client honoring it never arrives early.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
