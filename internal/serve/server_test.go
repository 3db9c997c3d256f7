package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"looppoint/internal/artifact"
)

// postJob drives the handler directly (no sockets): returns the HTTP
// status and the decoded JSON body.
func postJob(t *testing.T, s *Server, req JobRequest) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad response body %q: %v", w.Body.String(), err)
	}
	return w.Code, out
}

// okRunner completes instantly.
func okRunner(ctx context.Context, req *JobRequest) (*JobResult, error) {
	return &JobResult{ID: req.ID, Class: req.Class, App: req.App, Summary: "ok"}, nil
}

// blockingRunner blocks until released (or the job's deadline/cancel).
type blockingRunner struct {
	started chan string   // receives req.ID when a job begins running
	release chan struct{} // close (or send) to let jobs finish
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, req *JobRequest) (*JobResult, error) {
	b.started <- req.ID
	select {
	case <-b.release:
		return &JobResult{ID: req.ID, Class: req.Class, App: req.App, Summary: "ok"}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func startServer(t *testing.T, cfg Config, run RunFunc) *Server {
	t.Helper()
	s := New(cfg, run)
	s.Start()
	t.Cleanup(func() { s.Drain() })
	return s
}

// TestServeJobOK: the happy path end to end — admission, execution,
// server-filled timing fields, and the health endpoints.
func TestServeJobOK(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 2}, okRunner)
	code, body := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"})
	if code != http.StatusOK {
		t.Fatalf("status %d body %v, want 200", code, body)
	}
	if body["summary"] != "ok" {
		t.Fatalf("bad result: %v", body)
	}
	if body["id"] == "" {
		t.Fatal("server did not mint a job id")
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK || w.Body.String() != "{\"ready\":true,\"slots\":2}\n" {
		t.Fatalf("readyz %d %q, want 200 advertising MaxInflight as 2 slots", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || w.Body.String() != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz %d %q, want 200 with liveness only (counters live on /v1/stats)", w.Code, w.Body.String())
	}
	st := s.Stats()
	if st.Admitted != 1 || st.Completed != 1 {
		t.Fatalf("stats admitted=%d completed=%d, want 1/1", st.Admitted, st.Completed)
	}
}

// TestServeRejectsBadRequests: malformed JSON, unknown class, missing
// app — all 400, none admitted.
func TestServeRejectsBadRequests(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 1}, okRunner)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte("{nope"))))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", w.Code)
	}
	if code, _ := postJob(t, s, JobRequest{Class: "mine-bitcoin", App: "x"}); code != http.StatusBadRequest {
		t.Fatalf("unknown class: status %d, want 400", code)
	}
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze}); code != http.StatusBadRequest {
		t.Fatalf("missing app: status %d, want 400", code)
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("bad requests were admitted: %+v", st)
	}
}

// TestServeQueueFullSheds429: with one worker busy and the queue full,
// the next request is shed immediately with 429 + Retry-After instead of
// queuing unboundedly — and completes normally once load clears.
func TestServeQueueFullSheds429(t *testing.T) {
	br := newBlockingRunner()
	s := startServer(t, Config{MaxInflight: 1, QueueDepth: 1}, br.run)

	// One at a time: posted together, the second can meet the one-deep
	// queue before the worker has dequeued the first and be shed itself.
	results := make(chan int, 2)
	post := func(id string) {
		code, _ := postJob(t, s, JobRequest{ID: id, Class: ClassAnalyze, App: "npb-cg"})
		results <- code
	}
	go post("j0")
	<-br.started // j0 is running and the queue is empty again
	go post("j1")
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	code, body := postJob(t, s, JobRequest{ID: "overload", Class: ClassAnalyze, App: "npb-cg"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d body %v, want 429", code, body)
	}
	if body["outcome"] != "shed_queue" || body["retry_after_ms"].(float64) <= 0 {
		t.Fatalf("bad shed body: %v", body)
	}

	close(br.release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("admitted job finished with %d, want 200", code)
		}
	}
	if st := s.Stats(); st.ShedQueue != 1 || st.Completed != 2 {
		t.Fatalf("stats %+v, want shed_queue=1 completed=2", st)
	}
}

// TestServeDeadlineWhileQueued: a job whose deadline expires before a
// worker picks it up answers promptly with the typed queued-phase
// timeout — it is not silently dropped and does not start doomed work.
func TestServeDeadlineWhileQueued(t *testing.T) {
	br := newBlockingRunner()
	s := startServer(t, Config{MaxInflight: 1, QueueDepth: 2}, br.run)

	first := make(chan int, 1)
	go func() {
		code, _ := postJob(t, s, JobRequest{ID: "holder", Class: ClassAnalyze, App: "npb-cg"})
		first <- code
	}()
	<-br.started

	start := time.Now()
	code, body := postJob(t, s, JobRequest{ID: "doomed", Class: ClassAnalyze, App: "npb-cg", DeadlineMS: 80})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %v, want 504", code, body)
	}
	if body["outcome"] != "timeout" || body["timeout"] != true {
		t.Fatalf("bad timeout body: %v", body)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timed-out request took %v to answer", elapsed)
	}

	close(br.release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("holder finished with %d, want 200", code)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("stats %+v, want timeouts=1", st)
	}
}

// TestServeBreakerTripsAndRecovers: consecutive failures in one class
// trip its breaker (503 + Retry-After while open), other classes keep
// serving, and after the hold a successful probe closes it again.
func TestServeBreakerTripsAndRecovers(t *testing.T) {
	clk := newFakeClock()
	var failing atomic.Bool
	failing.Store(true)
	run := func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		if req.Class == ClassReport && failing.Load() {
			return nil, fmt.Errorf("synthetic dependency failure")
		}
		return okRunner(ctx, req)
	}
	s := startServer(t, Config{
		MaxInflight: 2,
		Breaker:     BreakerOpts{FailureThreshold: 2, OpenFor: 10 * time.Second, Now: clk.Now},
	}, run)

	for i := 0; i < 2; i++ {
		if code, _ := postJob(t, s, JobRequest{Class: ClassReport, App: "npb-cg"}); code != http.StatusInternalServerError {
			t.Fatalf("failing job %d: status %d, want 500", i, code)
		}
	}
	code, body := postJob(t, s, JobRequest{Class: ClassReport, App: "npb-cg"})
	if code != http.StatusServiceUnavailable || body["outcome"] != "shed_breaker" {
		t.Fatalf("status %d body %v, want 503 shed_breaker", code, body)
	}
	if body["retry_after_ms"].(float64) <= 0 {
		t.Fatalf("shed_breaker without a retry hint: %v", body)
	}
	// The analyze class has its own breaker and keeps serving.
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"}); code != http.StatusOK {
		t.Fatalf("analyze sheared by report's breaker: %d", code)
	}

	clk.Advance(10 * time.Second)
	failing.Store(false)
	if code, body := postJob(t, s, JobRequest{Class: ClassReport, App: "npb-cg"}); code != http.StatusOK {
		t.Fatalf("probe after recovery: status %d body %v, want 200", code, body)
	}
	if got := s.breakers[ClassReport].State(); got != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", got)
	}
	if got := s.breakers[ClassReport].Trips(); got != 1 {
		t.Fatalf("trips %d, want 1", got)
	}
}

// TestServeJobRunsOnce: a failing job is answered 500 after one run of
// the runner — an error and a panic alike — and a request that still
// carries the old "retries" field is accepted and runs once too.
func TestServeJobRunsOnce(t *testing.T) {
	var runs atomic.Int64
	s := startServer(t, Config{MaxInflight: 1, Breaker: BreakerOpts{FailureThreshold: 100}},
		func(ctx context.Context, req *JobRequest) (*JobResult, error) {
			runs.Add(1)
			if req.App == "panic" {
				panic("runner bug")
			}
			return nil, fmt.Errorf("deterministic failure")
		})
	for _, body := range []string{
		`{"class":"report","app":"a","retries":3}`,
		`{"class":"report","app":"panic","retries":3}`,
	} {
		before := runs.Load()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte(body))))
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d %s, want 500", body, w.Code, w.Body.String())
		}
		if n := runs.Load() - before; n != 1 {
			t.Fatalf("%s: runner invoked %d times, want 1", body, n)
		}
	}
	if st := s.Stats(); st.Admitted != 2 || st.Errors != 2 {
		t.Fatalf("stats %+v, want 2 admitted, 2 errors", st)
	}
}

// TestServeDrainCancelsUnfinished: SIGTERM-style drain stops admitting
// (readyz flips, new jobs shed), answers queued jobs drained and cancels
// running ones, each request with its own answer.
func TestServeDrainCancelsUnfinished(t *testing.T) {
	br := newBlockingRunner()
	s := New(Config{
		MaxInflight: 1, QueueDepth: 4,
		DrainDeadline: 300 * time.Millisecond,
	}, br.run)
	s.Start()

	results := make(chan map[string]any, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, body := postJob(t, s, JobRequest{ID: fmt.Sprintf("j%d", i), Class: ClassAnalyze, App: "npb-cg"})
			results <- body
		}(i)
	}
	<-br.started // one running...
	waitFor(t, func() bool { return s.Stats().Queued == 2 })

	st := s.Drain()
	if st.Clean {
		t.Fatal("drain reported clean with jobs stuck")
	}

	outcomes := map[string]int{}
	for i := 0; i < 3; i++ {
		body := <-results
		outcomes[body["outcome"].(string)]++
	}
	if outcomes["drained"] != 2 || outcomes["canceled"] != 1 {
		t.Fatalf("outcomes %v, want 2 drained + 1 canceled", outcomes)
	}

	// Draining servers refuse new work and report unready.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", w.Code)
	}
	if code, body := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"}); code != http.StatusServiceUnavailable || body["outcome"] != "shed_drain" {
		t.Fatalf("admission while draining: %d %v, want 503 shed_drain", code, body)
	}
}

// TestServeDrainMidFlight: a drain that lands with one job finished, one
// running and one queued changes nothing about the finished one, cancels
// the running one, flushes the queued one, and every concurrent POST
// /v1/jobs still gets its own answer; posts that arrive afterwards are
// shed_drain.
func TestServeDrainMidFlight(t *testing.T) {
	br := newBlockingRunner()
	run := func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		if req.ID == "finished" {
			return okRunner(ctx, req)
		}
		return br.run(ctx, req)
	}
	s := New(Config{MaxInflight: 1, QueueDepth: 4, DrainDeadline: 300 * time.Millisecond}, run)
	s.Start()

	if code, _ := postJob(t, s, JobRequest{ID: "finished", Class: ClassAnalyze, App: "npb-cg"}); code != http.StatusOK {
		t.Fatalf("first job: status %d, want 200", code)
	}
	bodies := make(chan map[string]any, 2)
	post := func(id string) {
		_, body := postJob(t, s, JobRequest{ID: id, Class: ClassAnalyze, App: "npb-cg"})
		body["id"] = id
		bodies <- body
	}
	go post("running")
	<-br.started
	go post("queued")
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	ds := s.Drain()
	if ds.Clean {
		t.Fatalf("drain %+v, want unclean", ds)
	}
	want := map[string]string{"running": "canceled", "queued": "drained"}
	for range want {
		body := <-bodies
		if id := body["id"].(string); body["outcome"] != want[id] {
			t.Fatalf("job %s answered %v, want outcome %s", id, body, want[id])
		}
	}
	if st := s.Stats(); st.Completed != 1 {
		t.Fatalf("stats %+v, want completed=1", st)
	}
	if code, body := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"}); code != http.StatusServiceUnavailable || body["outcome"] != "shed_drain" {
		t.Fatalf("post after drain: %d %v, want 503 shed_drain", code, body)
	}
}

// TestServeDrainWaitsForInflight: a job running when the drain starts
// and finishing inside the drain deadline gets its result, not a
// cancellation, and the drain is clean.
func TestServeDrainWaitsForInflight(t *testing.T) {
	br := newBlockingRunner()
	s := New(Config{MaxInflight: 1, DrainDeadline: 5 * time.Second}, br.run)
	s.Start()
	answer := make(chan int, 1)
	go func() {
		code, _ := postJob(t, s, JobRequest{ID: "inflight", Class: ClassAnalyze, App: "npb-cg"})
		answer <- code
	}()
	<-br.started
	drained := make(chan DrainStats, 1)
	go func() { drained <- s.Drain() }()
	waitFor(t, func() bool { return s.Stats().Draining })
	close(br.release)
	if code := <-answer; code != http.StatusOK {
		t.Fatalf("job in flight at drain answered %d, want 200", code)
	}
	if ds := <-drained; !ds.Clean {
		t.Fatalf("drain %+v, want clean", ds)
	}
}

// halfOpenServer boots a server whose analyze breaker has tripped on one
// failure and whose open hold has passed, so the next admission probes
// half-open. Jobs for app "boom" fail; every other job blocks on br.
func halfOpenServer(t *testing.T, probes int) (*Server, *blockingRunner) {
	t.Helper()
	clk := newFakeClock()
	br := newBlockingRunner()
	run := func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		if req.App == "boom" {
			return nil, fmt.Errorf("dependency down")
		}
		return br.run(ctx, req)
	}
	s := startServer(t, Config{MaxInflight: 4, QueueDepth: 16,
		Breaker: BreakerOpts{FailureThreshold: 1, OpenFor: 10 * time.Second, HalfOpenProbes: probes, Now: clk.Now},
	}, run)
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "boom"}); code != http.StatusInternalServerError {
		t.Fatalf("trip job: status %d", code)
	}
	clk.Advance(11 * time.Second)
	return s, br
}

// TestServeHalfOpenProbeAdmission: while the one half-open probe is still
// running, every further POST /v1/jobs of that class is shed with
// shed_breaker / half-open and a retry hint — the probe slot goes to the
// first arrival — and the probe's success closes the breaker for
// whatever comes next.
func TestServeHalfOpenProbeAdmission(t *testing.T) {
	s, br := halfOpenServer(t, 1)
	probe := make(chan int, 1)
	go func() {
		code, _ := postJob(t, s, JobRequest{ID: "p0", Class: ClassAnalyze, App: "npb-cg"})
		probe <- code
	}()
	if id := <-br.started; id != "p0" {
		t.Fatalf("probe slot went to %q", id)
	}
	for _, id := range []string{"p1", "p2", "p3"} {
		code, body := postJob(t, s, JobRequest{ID: id, Class: ClassAnalyze, App: "npb-ft"})
		if code != http.StatusServiceUnavailable || body["outcome"] != "shed_breaker" ||
			body["breaker"] != "half-open" || body["retry_after_ms"].(float64) <= 0 {
			t.Fatalf("%s behind the probe: %d %v, want 503 shed_breaker half-open", id, code, body)
		}
	}
	if st := s.Stats(); st.Admitted != 2 || st.ShedBreaker != 3 {
		t.Fatalf("stats %+v, want the trip job + one probe admitted and 3 shed", st)
	}
	close(br.release)
	if code := <-probe; code != http.StatusOK {
		t.Fatalf("probe finished with %d", code)
	}
	if b := s.breakers[ClassAnalyze]; b.State() != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", b.State())
	}
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-ft"}); code != http.StatusOK {
		t.Fatalf("post after close: %d, want 200", code)
	}
}

// TestServeHalfOpenProbeRace: N concurrent POST /v1/jobs racing into a
// half-open breaker let exactly HalfOpenProbes through between them —
// concurrent admissions cannot widen the probe window — and only once
// every probe has succeeded does the breaker close.
func TestServeHalfOpenProbeRace(t *testing.T) {
	for _, probes := range []int{1, 2} {
		t.Run(fmt.Sprintf("probes=%d", probes), func(t *testing.T) {
			s, br := halfOpenServer(t, probes)
			const posts = 8
			codes := make(chan int, posts)
			for i := 0; i < posts; i++ {
				go func() {
					code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"})
					codes <- code
				}()
			}
			for i := 0; i < probes; i++ {
				<-br.started
			}
			waitFor(t, func() bool { return s.Stats().ShedBreaker == uint64(posts-probes) })
			if st := s.Stats(); st.Admitted != uint64(1+probes) {
				t.Fatalf("stats %+v: the breaker admitted more than its %d probes", st, probes)
			}
			if b := s.breakers[ClassAnalyze]; b.State() != BreakerHalfOpen {
				t.Fatalf("breaker %v with probes still running, want half-open", b.State())
			}
			close(br.release)
			ok, shed := 0, 0
			for i := 0; i < posts; i++ {
				switch <-codes {
				case http.StatusOK:
					ok++
				case http.StatusServiceUnavailable:
					shed++
				}
			}
			if ok != probes || shed != posts-probes {
				t.Fatalf("%d succeeded, %d shed; want exactly %d probes through", ok, shed, probes)
			}
			if b := s.breakers[ClassAnalyze]; b.State() != BreakerClosed {
				t.Fatalf("breaker %v after every probe succeeded, want closed", b.State())
			}
		})
	}
}

// TestServeWrongMethodAnswers405: the method patterns the routes are
// registered with answer a wrong method with 405 and an Allow header,
// and admit nothing.
func TestServeWrongMethodAnswers405(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 1}, okRunner)
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodGet, "/v1/jobs", http.MethodPost},
		{http.MethodPut, "/v1/claim", http.MethodPost},
		{http.MethodPost, "/v1/stats", "GET, HEAD"},
	} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(c.method, c.path, bytes.NewReader([]byte(`{"class":"analyze","app":"x"}`))))
		if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") != c.allow {
			t.Errorf("%s %s: status %d Allow %q, want 405 Allow %q", c.method, c.path, w.Code, w.Header().Get("Allow"), c.allow)
		}
	}
	for _, path := range []string{"/v1/nope", "/v1/jobs/again"} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, nil))
		if w.Code != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404 (two submission routes, no third)", path, w.Code)
		}
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("wrong-method requests were admitted: %+v", st)
	}
}

// TestServeDrainCleanWhenIdle: draining an idle (or promptly finishing)
// server is clean — workers exit.
func TestServeDrainCleanWhenIdle(t *testing.T) {
	s := New(Config{MaxInflight: 2, DrainDeadline: time.Second}, okRunner)
	s.Start()
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"}); code != http.StatusOK {
		t.Fatal("warmup job failed")
	}
	st := s.Drain()
	if !st.Clean || st.LeakedWorkers != 0 {
		t.Fatalf("idle drain not clean: %+v", st)
	}
}

// TestServeChaosFaultNoHangs is the deterministic chaos drill: with a
// runner that fails, stalls, and panics (seed-swept in CI via
// FAULTS_SEED), a burst of concurrent requests with tight deadlines must
// all be answered — success, typed error, typed timeout, or shed — with
// no request hanging past its deadline, inflight never exceeding
// MaxInflight, and a clean drain afterwards.
func TestServeChaosFaultNoHangs(t *testing.T) {
	seed := uint64(1)
	if n, err := strconv.ParseUint(os.Getenv("FAULTS_SEED"), 10, 64); err == nil {
		seed = n
	}

	const (
		maxInflight = 4
		requests    = 40
		deadline    = 2 * time.Second
		slack       = 8 * time.Second // CI scheduling headroom on top of the deadline
	)
	// The n-th run's fate is a pure function of (seed, n): every seventh
	// run panics (at most three times), and of the rest about one in three
	// fails and one in five stalls 10 ms; every run not failed does a
	// sliver of deterministic work that respects cancellation.
	var runs atomic.Uint64
	var panics atomic.Int64
	run := func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		n := runs.Add(1) - 1
		h := artifact.Checksum([]byte(fmt.Sprintf("%d/%d", seed, n)))
		d := time.Duration(req.Threads%5+1) * time.Millisecond
		switch {
		case n%7 == seed%7 && panics.Add(1) <= 3:
			panic(fmt.Sprintf("chaos: run %d panics", n))
		case h%3 == 0:
			return nil, fmt.Errorf("chaos: run %d fails", n)
		case h%5 == 0:
			d += 10 * time.Millisecond
		}
		select {
		case <-time.After(d):
			return &JobResult{ID: req.ID, Summary: "ok"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s := New(Config{
		MaxInflight: maxInflight, QueueDepth: 8,
		DefaultDeadline: deadline,
		Breaker:         BreakerOpts{FailureThreshold: 4, OpenFor: 50 * time.Millisecond},
		DrainDeadline:   2 * time.Second,
	}, run)
	s.Start()

	classes := []string{ClassAnalyze, ClassReport}
	type answer struct {
		code    int
		outcome string
		elapsed time.Duration
	}
	answers := make(chan answer, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			code, body := postJob(t, s, JobRequest{
				ID: fmt.Sprintf("chaos-%d", i), Class: classes[i%len(classes)],
				App: "npb-cg", Threads: i,
				DeadlineMS: deadline.Milliseconds(),
			})
			outcome, _ := body["outcome"].(string)
			if code == http.StatusOK {
				outcome = "ok"
			}
			answers <- answer{code: code, outcome: outcome, elapsed: time.Since(start)}
		}(i)
	}
	wg.Wait()
	close(answers)

	outcomes := map[string]int{}
	answered := 0
	for a := range answers {
		answered++
		outcomes[a.outcome]++
		if a.elapsed > deadline+slack {
			t.Errorf("request answered after %v — past deadline %v + slack", a.elapsed, deadline)
		}
		switch a.code {
		case http.StatusOK, http.StatusInternalServerError, http.StatusGatewayTimeout,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("unexpected status %d (outcome %s)", a.code, a.outcome)
		}
	}
	if answered != requests {
		t.Fatalf("answered %d of %d requests", answered, requests)
	}
	st := s.Stats()
	if st.HighWater > maxInflight {
		t.Fatalf("inflight high water %d exceeded max-inflight %d", st.HighWater, maxInflight)
	}
	total := st.Completed + st.Errors + st.Timeouts + st.ShedQueue + st.ShedBreaker + st.ShedDrain
	if st.Admitted > total {
		t.Fatalf("admitted %d > accounted %d: some request vanished (stats %+v)", st.Admitted, total, st)
	}
	t.Logf("seed %d outcomes: %v (runs %d, panics %d, high water %d, trips %v)",
		seed, outcomes, runs.Load(), min(panics.Load(), 3), st.HighWater, st.Trips)

	ds := s.Drain()
	if !ds.Clean {
		t.Fatalf("post-chaos drain not clean: %+v", ds)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
