package campaign

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"looppoint/internal/artifact"
	"looppoint/internal/harness"
	"looppoint/internal/serve"
)

// fakeResult is the deterministic fake worker payload: a pure function
// of the canonical job spec, so every honest execution of one key —
// any worker, any attempt — produces byte-identical canonical results.
func fakeResult(job serve.JobRequest) *serve.JobResult {
	h := artifact.Checksum([]byte(fmt.Sprintf("%s|%s|%s|%d|%s|%s|%t",
		job.Class, job.App, job.Input, job.Threads, job.Policy, job.Core, job.Full)))
	return &serve.JobResult{
		ID: job.ID, Class: job.Class, App: job.App,
		Summary:          fmt.Sprintf("fake-%04x", h&0xffff),
		Regions:          int(h%7) + 1,
		Points:           int(h%3) + 1,
		PredictedSeconds: float64(h%1000) / 10,
	}
}

// fakeWorker is an in-process WorkerClient with scriptable misbehavior.
type fakeWorker struct {
	name string

	mu        sync.Mutex
	claims    int
	failFirst int // transport-error the first N claims
	shedFirst int // answer 503 to the first N claims
	hangFirst int // block the first N claims until their ctx dies
	badReq    bool
	delay     time.Duration // answer each successful claim this late
	slots     int           // advertised by Ready (0: 1)
}

func (f *fakeWorker) Name() string                           { return f.name }
func (f *fakeWorker) Ready(ctx context.Context) (int, error) { return max(f.slots, 1), nil }

func (f *fakeWorker) Claim(ctx context.Context, key string, leaseMS int64, job serve.JobRequest) (*ClaimOutcome, error) {
	f.mu.Lock()
	f.claims++
	n := f.claims
	hang := n <= f.hangFirst
	n -= f.hangFirst
	fail, shed, bad := n > 0 && n <= f.failFirst, n > f.failFirst && n <= f.failFirst+f.shedFirst, f.badReq
	f.mu.Unlock()
	switch {
	case hang:
		<-ctx.Done()
		return nil, ctx.Err()
	case fail:
		return nil, fmt.Errorf("%s: connection reset", f.name)
	case shed:
		return &ClaimOutcome{Status: http.StatusServiceUnavailable, Outcome: "shed_breaker",
			Err: "injected shed", RetryAfterMS: 1}, nil
	case bad:
		return &ClaimOutcome{Status: http.StatusBadRequest, Outcome: "bad_request", Err: "injected bad request"}, nil
	}
	time.Sleep(f.delay)
	res := fakeResult(job)
	res.ID = key
	return &ClaimOutcome{Status: http.StatusOK, Outcome: "ok", Result: res}, nil
}

// quickConfig is a millisecond-scale coordinator config for tests.
func quickConfig(tag string) Config {
	return Config{
		Tag: tag, Lease: 40 * time.Millisecond, RequestTimeout: 120 * time.Millisecond,
		Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond, Seed: 42,
		ProbeInterval: 20 * time.Millisecond,
		Breaker:       serve.BreakerOpts{FailureThreshold: 3, OpenFor: 20 * time.Millisecond},
	}
}

func npbSpec(n int) Spec {
	apps := []string{"npb-cg", "npb-ft", "npb-is", "npb-mg", "npb-lu", "npb-ep", "npb-bt", "npb-sp"}
	var s Spec
	for i := 0; i < n; i++ {
		s.Jobs = append(s.Jobs, serve.JobRequest{
			Class: serve.ClassAnalyze, App: apps[i%len(apps)], Input: "test", Threads: 4,
		})
	}
	return s
}

func runCampaign(t *testing.T, cfg Config, workers []WorkerClient, spec Spec) *Report {
	t.Helper()
	c, err := New(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatalf("campaign run: %v", err)
	}
	return rep
}

// canonical is the coordinator's reading of one spec entry: the
// canonical job, request plumbing cleared, and its key under tag.
func canonical(t *testing.T, tag string, j serve.JobRequest) (serve.JobRequest, string) {
	t.Helper()
	n, err := serve.Canonical(j)
	if err != nil {
		t.Fatal(err)
	}
	n.ID, n.DeadlineMS = "", 0
	return n, KeyTagged(tag, n)
}

func TestKeyTaggedNormalizes(t *testing.T) {
	key := func(tag string, j serve.JobRequest) string {
		_, k := canonical(t, tag, j)
		return k
	}
	explicit := serve.JobRequest{ID: "x", Class: serve.ClassAnalyze, App: "npb-cg",
		Input: "train", Policy: "passive", Core: "ooo", DeadlineMS: 5000}
	implicit := serve.JobRequest{Class: serve.ClassAnalyze, App: "npb-cg"}
	if key("t", explicit) != key("t", implicit) {
		t.Fatal("spelled-out defaults and empty defaults should share a key")
	}
	if key("t", implicit) == key("u", implicit) {
		t.Fatal("distinct tags must produce distinct keys")
	}
	other := implicit
	other.Threads = 8
	if key("t", implicit) == key("t", other) {
		t.Fatal("distinct specs must produce distinct keys")
	}
	if len(key("t", implicit)) != 16 {
		t.Fatalf("key %q is not 16 hex digits", key("t", implicit))
	}
}

// TestKeyTaggedPinned pins the content address of jobs whose keys were
// computed before serve.Canonical existed: implicit and explicit
// defaults, both classes, both policies. A campaign cache or journal
// written then must still resolve every one of them.
func TestKeyTaggedPinned(t *testing.T) {
	for _, c := range []struct {
		job  serve.JobRequest
		want string
	}{
		{serve.JobRequest{Class: serve.ClassAnalyze, App: "npb-cg"}, "a6a90dcb52492b6b"},
		{serve.JobRequest{Class: serve.ClassAnalyze, App: "npb-cg", Input: "train", Policy: "passive", Core: "ooo"}, "a6a90dcb52492b6b"},
		{serve.JobRequest{Class: serve.ClassAnalyze, App: "npb-ft", Input: "test", Threads: 4}, "b33da160314493b7"},
		{serve.JobRequest{Class: serve.ClassReport, App: "657.xz_s.2", Input: "test", Threads: 2, Policy: "active", Full: true}, "cd9dfb438687a5b2"},
		{serve.JobRequest{Class: serve.ClassReport, App: "657.xz_s.2", Input: "test", Threads: 4, Policy: "active", Full: true}, "f6f5392532f47374"},
		{serve.JobRequest{Class: serve.ClassReport, App: "621.wrf_s.1", Input: "ref", Core: "inorder", DeadlineMS: 900}, "f5a9de096359ae64"},
		{serve.JobRequest{ID: "mine", Class: serve.ClassReport, App: "621.wrf_s.1", Policy: "passive"}, "f0f3063d712261d7"},
	} {
		if _, got := canonical(t, "pinned", c.job); got != c.want {
			t.Errorf("%+v: key %s, want %s", c.job, got, c.want)
		}
	}
}

// journalEntries appends one completed result per job of npbSpec(n) under
// tag to the journal at path and returns each entry's canonical bytes.
func journalEntries(t *testing.T, path, tag string, n int) [][]byte {
	t.Helper()
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var want [][]byte
	for _, job := range npbSpec(n).Jobs {
		n, key := canonical(t, tag, job)
		r := &Result{Key: key, Job: n, Res: CanonicalResult(key, fakeResult(n))}
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		b, _ := r.CanonicalBytes()
		want = append(want, b)
	}
	return want
}

// restoredEqual fails unless the restored results are, in order, exactly
// the entries with canonical bytes want.
func restoredEqual(t *testing.T, restored []*Result, want [][]byte) {
	t.Helper()
	if len(restored) != len(want) {
		t.Fatalf("restored %d results, want %d", len(restored), len(want))
	}
	for i, r := range restored {
		got, err := r.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("result %d not rehydrated byte-identically:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestJournalResumeRoundTrip: results appended before a crash are
// restored byte-identically, and a torn final line is repaired away.
func TestJournalResumeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	j, restored, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(restored) != 0 {
		t.Fatalf("fresh journal restored %d results", len(restored))
	}
	want := journalEntries(t, path, "tag-a", 3)

	// Simulate the coordinator dying mid-append: a torn line trails.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"fnv1a":"0xdead","record":{"key":"torn`)
	f.Close()

	j2, restored, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	restoredEqual(t, restored, want)
}

// TestJournalFlippedInteriorLineRestoresIntactEntries: a bit flipped at
// rest inside one line costs that entry alone; every intact entry before
// and after it is restored byte-identically.
func TestJournalFlippedInteriorLineRestoresIntactEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	want := journalEntries(t, path, "tag-a", 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	victim := lines[1]
	victim[len(victim)/2] ^= 0x01
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	j, restored, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	restoredEqual(t, restored, [][]byte{want[0], want[2], want[3]})
}

// TestCoordinatorForeignJournalDispatchesEverything: a campaign under tag
// B resumed over tag A's journal of the same jobs restores nothing —
// A's entries are keyed as A's tasks, which B never looks up — so it
// dispatches every job, and every result it reports is B's own.
func TestCoordinatorForeignJournalDispatchesEverything(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	spec := npbSpec(3)
	cfg := quickConfig("tag-a")
	cfg.JournalPath = path
	if rep := runCampaign(t, cfg, []WorkerClient{&fakeWorker{name: "w"}}, spec); rep.Stats.Completed != 3 {
		t.Fatalf("tag A: %s", rep.Stats.Line())
	}

	cfg.Tag = "tag-b"
	rep := runCampaign(t, cfg, []WorkerClient{&fakeWorker{name: "w"}}, spec)
	if rep.Stats.Restored != 0 || rep.Stats.CacheHits != 0 || rep.Stats.Dispatched != 3 || rep.Stats.Completed != 3 {
		t.Fatalf("tag B over tag A's journal: %s; want restored=0 cache_hits=0 dispatched=3 completed=3", rep.Stats.Line())
	}
	for _, r := range rep.Results {
		if want := KeyTagged("tag-b", r.Job); r.Key != want || r.Res.ID != want {
			t.Fatalf("tag B reported %s (result id %s) for a job keyed %s", r.Key, r.Res.ID, want)
		}
	}
}

// TestCoordinatorFleetMatchesSingleNode: the same campaign through a
// 3-worker fleet and through one worker renders byte-identical reports.
func TestCoordinatorFleetMatchesSingleNode(t *testing.T) {
	spec := npbSpec(8)
	fleet := runCampaign(t, quickConfig("fleet"),
		[]WorkerClient{&fakeWorker{name: "w0"}, &fakeWorker{name: "w1"}, &fakeWorker{name: "w2"}}, spec)
	single := runCampaign(t, quickConfig("fleet"), []WorkerClient{&fakeWorker{name: "solo"}}, spec)
	if fleet.Stats.Failed != 0 || single.Stats.Failed != 0 {
		t.Fatalf("failures: fleet=%d single=%d", fleet.Stats.Failed, single.Stats.Failed)
	}
	if fleet.Render() != single.Render() {
		t.Fatalf("fleet and single-node reports diverge:\n%s\nvs\n%s", fleet.Render(), single.Render())
	}
}

// TestCoordinatorRetriesTransientFaults: transport errors and shed
// responses burn attempts but not the campaign.
func TestCoordinatorRetriesTransientFaults(t *testing.T) {
	w := &fakeWorker{name: "flaky", failFirst: 3, shedFirst: 2}
	rep := runCampaign(t, quickConfig("retry"), []WorkerClient{w}, npbSpec(4))
	if rep.Stats.Failed != 0 || rep.Stats.Completed != 4 {
		t.Fatalf("stats %+v", rep.Stats)
	}
	if rep.Stats.Dispatched < 4+3+2 {
		t.Fatalf("dispatched %d, want at least %d (retries burn dispatches)", rep.Stats.Dispatched, 9)
	}
}

// TestCoordinatorAttemptCapBoundsDispatches: the coordinator is the one
// retry bound. A real worker whose runner always fails answers each
// claim once, so a campaign of n jobs with MaxAttempts m dispatches
// exactly n·m claims, runs the job no more often than that, fails every
// job and settles — retries cannot amplify below the coordinator.
func TestCoordinatorAttemptCapBoundsDispatches(t *testing.T) {
	const n, m = 4, 3
	var runs atomic.Int64
	s := serve.New(serve.Config{MaxInflight: 2, QueueDepth: 8, Breaker: serve.BreakerOpts{FailureThreshold: 1000}},
		func(ctx context.Context, req *serve.JobRequest) (*serve.JobResult, error) {
			runs.Add(1)
			return nil, fmt.Errorf("deterministic failure")
		})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	cfg := quickConfig("cap")
	cfg.Lease, cfg.RequestTimeout = time.Second, 2*time.Second // no steals
	cfg.MaxAttempts = m
	cfg.Breaker.FailureThreshold = 1000
	rep := runCampaign(t, cfg, []WorkerClient{NewHTTPWorker("w", ts.URL)}, npbSpec(n))
	if rep.Stats.Failed != n || rep.Stats.Completed != 0 {
		t.Fatalf("want all %d jobs failed: %s", n, rep.Stats.Line())
	}
	if rep.Stats.Dispatched != n*m {
		t.Fatalf("dispatched %d, want n·m = %d: %s", rep.Stats.Dispatched, n*m, rep.Stats.Line())
	}
	if got := runs.Load(); got > int64(rep.Stats.Dispatched) {
		t.Fatalf("runner invoked %d times for %d dispatches: the worker re-ran jobs", got, rep.Stats.Dispatched)
	}
}

// TestCoordinatorBreakerSkipsFailingWorker: a worker whose every claim
// fails trips its dispatch breaker and stops being sent claims — the
// healthy (and slower) worker finishes the campaign — instead of taking
// its share of every job's attempts.
func TestCoordinatorBreakerSkipsFailingWorker(t *testing.T) {
	bad := &fakeWorker{name: "bad", failFirst: 1 << 30, slots: 2}
	cfg := quickConfig("breaker")
	cfg.Breaker = serve.BreakerOpts{FailureThreshold: 1, OpenFor: time.Minute}
	var spec Spec
	for i := 1; i <= 32; i++ {
		spec.Jobs = append(spec.Jobs, serve.JobRequest{Class: serve.ClassAnalyze, App: "npb-cg", Threads: i})
	}
	rep := runCampaign(t, cfg, []WorkerClient{bad, &fakeWorker{name: "good", delay: 2 * time.Millisecond}}, spec)
	if rep.Stats.Failed != 0 || rep.Stats.Completed != 32 {
		t.Fatalf("stats %s", rep.Stats.Line())
	}
	bad.mu.Lock()
	claims := bad.claims
	bad.mu.Unlock()
	slots, _ := bad.Ready(context.Background())
	if limit := 2 * slots; claims > limit {
		t.Fatalf("the failing worker got %d claims, want <= %d once its breaker tripped", claims, limit)
	}
}

// fleetBarrier holds every claim until the fleet's summed slots are all
// busy at once, or until a deadline: the fleet fills only if the
// coordinator sends each worker as many concurrent claims as it
// advertises.
type fleetBarrier struct {
	want     int64
	inflight atomic.Int64
	once     sync.Once
	full     chan struct{}
	deadline time.Time
}

func (b *fleetBarrier) wait() {
	if b.inflight.Add(1) >= b.want {
		b.once.Do(func() { close(b.full) })
	}
	select {
	case <-b.full:
	case <-time.After(time.Until(b.deadline)):
	}
	b.inflight.Add(-1)
}

// concurrency counts a fake worker's claims in flight and the most it
// ever had at once.
type concurrency struct{ cur, peak atomic.Int64 }

// enter counts one claim in; the returned func counts it out.
func (c *concurrency) enter() (leave func()) {
	n := c.cur.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return func() { c.cur.Add(-1) }
}

// slotCounter is a fake worker that holds each claim at the fleet
// barrier and records its peak concurrency.
type slotCounter struct {
	*fakeWorker
	concurrency
	barrier *fleetBarrier
}

func (w *slotCounter) Claim(ctx context.Context, key string, leaseMS int64, job serve.JobRequest) (*ClaimOutcome, error) {
	defer w.enter()()
	w.barrier.wait()
	return w.fakeWorker.Claim(ctx, key, leaseMS, job)
}

// TestCoordinatorDispatchMatchesWorkerSlots: the coordinator keeps
// exactly as many claims in flight to a worker as its probe advertises —
// a 1-slot and a 3-slot worker reach 1 and 3 concurrent claims, and
// never more.
func TestCoordinatorDispatchMatchesWorkerSlots(t *testing.T) {
	barrier := &fleetBarrier{want: 1 + 3, full: make(chan struct{}), deadline: time.Now().Add(5 * time.Second)}
	one := &slotCounter{fakeWorker: &fakeWorker{name: "one", slots: 1}, barrier: barrier}
	three := &slotCounter{fakeWorker: &fakeWorker{name: "three", slots: 3}, barrier: barrier}
	cfg := quickConfig("slots")
	cfg.Lease, cfg.RequestTimeout = 10*time.Second, 20*time.Second // nothing here may steal
	var spec Spec
	for i := 1; i <= 12; i++ {
		spec.Jobs = append(spec.Jobs, serve.JobRequest{Class: serve.ClassAnalyze, App: "npb-cg", Threads: i})
	}
	rep := runCampaign(t, cfg, []WorkerClient{one, three}, spec)
	if rep.Stats.Failed != 0 || rep.Stats.Completed != 12 {
		t.Fatalf("stats %s", rep.Stats.Line())
	}
	for _, w := range []*slotCounter{one, three} {
		if got, want := w.peak.Load(), int64(w.slots); got != want {
			t.Errorf("worker %s advertising %d slots peaked at %d concurrent claims", w.name, want, got)
		}
	}
}

// flexWorker advertises the slots the test sets (0: not ready), holds
// claims at a gate until the test opens it, and records its concurrency.
type flexWorker struct {
	*fakeWorker
	concurrency
	advertised, done atomic.Int64
	gate             chan struct{}
}

func (f *flexWorker) Ready(ctx context.Context) (int, error) {
	if n := f.advertised.Load(); n > 0 {
		return int(n), nil
	}
	return 0, fmt.Errorf("flex: down")
}

func (f *flexWorker) Claim(ctx context.Context, key string, leaseMS int64, job serve.JobRequest) (*ClaimOutcome, error) {
	defer f.done.Add(1)
	defer f.enter()()
	<-f.gate
	return f.fakeWorker.Claim(ctx, key, leaseMS, job)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("not reached within 5s: %s", what)
		}
	}
}

// TestCoordinatorRefitsWorkerSlots: the probe loop re-fits dispatch to
// what a worker advertises now — a worker that is down at start gets no
// claims, one that comes up with 3 slots gets 3 at once, and after it
// shrinks to 1 the runners above slot 0 retire once their claims return.
func TestCoordinatorRefitsWorkerSlots(t *testing.T) {
	w := &flexWorker{fakeWorker: &fakeWorker{name: "flex", delay: 5 * time.Millisecond}, gate: make(chan struct{})}
	cfg := quickConfig("refit")
	cfg.Lease, cfg.RequestTimeout = 10*time.Second, 20*time.Second // nothing here may steal
	var spec Spec
	for i := 1; i <= 60; i++ {
		spec.Jobs = append(spec.Jobs, serve.JobRequest{Class: serve.ClassAnalyze, App: "npb-cg", Threads: i})
	}
	c, err := New(cfg, []WorkerClient{w})
	if err != nil {
		t.Fatal(err)
	}
	reps := make(chan *Report, 1)
	go func() {
		rep, err := c.Run(context.Background(), spec)
		if err != nil {
			t.Error(err)
		}
		reps <- rep
	}()

	time.Sleep(5 * cfg.ProbeInterval)
	if w.peak.Load() != 0 {
		t.Fatal("a worker that is down got claims")
	}
	w.advertised.Store(3)
	waitFor(t, "3 concurrent claims once the worker advertises 3 slots", func() bool { return w.cur.Load() == 3 })
	w.advertised.Store(1)
	waitFor(t, "the probe learning the shrink", func() bool { return c.reg.Workers()[0].Slots() == 1 })
	close(w.gate)
	waitFor(t, "the 3 held claims returning", func() bool { return w.done.Load() >= 3 })
	w.peak.Store(0)
	rep := <-reps
	if rep == nil || rep.Stats.Failed != 0 || rep.Stats.Completed != len(spec.Jobs) {
		t.Fatalf("campaign did not complete: %+v", rep)
	}
	if p := w.peak.Load(); p != 1 {
		t.Fatalf("after shrinking to 1 slot the worker peaked at %d concurrent claims, want 1", p)
	}
}

// TestCoordinatorFillsServerSlots: a real worker with MaxInflight 4 runs
// four of the campaign's jobs at once — the coordinator learns its slots
// from /readyz — without shedding a claim from its queue.
func TestCoordinatorFillsServerSlots(t *testing.T) {
	var s *serve.Server
	var filled atomic.Bool
	deadline := time.Now().Add(5 * time.Second)
	s = serve.New(serve.Config{MaxInflight: 4},
		func(ctx context.Context, req *serve.JobRequest) (*serve.JobResult, error) {
			for !filled.Load() && time.Now().Before(deadline) {
				if s.Stats().Inflight == 4 {
					filled.Store(true)
				}
				time.Sleep(time.Millisecond)
			}
			return fakeResult(*req), nil
		})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	cfg := quickConfig("fill")
	cfg.Lease, cfg.RequestTimeout = 10*time.Second, 20*time.Second // nothing here may steal
	rep := runCampaign(t, cfg, []WorkerClient{NewHTTPWorker("w", ts.URL)}, npbSpec(8))
	if rep.Stats.Failed != 0 || rep.Stats.Completed != 8 {
		t.Fatalf("stats %s", rep.Stats.Line())
	}
	if !filled.Load() {
		t.Fatal("the worker never ran 4 jobs at once: the coordinator did not fill its slots")
	}
	if st := s.Stats(); st.HighWater != 4 || st.ShedQueue != 0 {
		t.Fatalf("high_water=%d shed_queue=%d, want 4 and 0", st.HighWater, st.ShedQueue)
	}
}

// TestCoordinatorFailsPermanentlyOnBadRequest: a 400 is terminal — one
// attempt, no retry storm, campaign still settles.
func TestCoordinatorFailsPermanentlyOnBadRequest(t *testing.T) {
	w := &fakeWorker{name: "strict", badReq: true}
	spec := npbSpec(2)
	c, err := New(quickConfig("perm"), []WorkerClient{w})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Failed != 2 || rep.Stats.Completed != 0 {
		t.Fatalf("stats %+v, want both jobs failed", rep.Stats)
	}
	if rep.Stats.Dispatched != 2 {
		t.Fatalf("dispatched %d: permanent failures must not burn retries", rep.Stats.Dispatched)
	}
	if !strings.Contains(rep.Render(), "FAILED") {
		t.Fatalf("report should mark failed jobs:\n%s", rep.Render())
	}
}

// TestCampaignUnknownAppFailsOnce: a spec naming an app no worker knows
// passes Canonical (the registry is the runner's), so it is dispatched —
// once: the worker's evaluator answers it 400, the coordinator fails it
// without a retry, every other job completes, and no breaker on either
// side counts it.
func TestCampaignUnknownAppFailsOnce(t *testing.T) {
	s := serve.New(serve.Config{MaxInflight: 2, Breaker: serve.BreakerOpts{FailureThreshold: 1}},
		serve.EvaluatorRunner(harness.NewEvaluator(harness.Options{Parallelism: 1, SliceUnit: 2000})))
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	spec := Spec{}
	for _, app := range []string{"npb-cg", "npb-nope", "npb-is"} {
		spec.Jobs = append(spec.Jobs, serve.JobRequest{Class: serve.ClassAnalyze, App: app, Input: "test", Threads: 2})
	}
	cfg := quickConfig("unknown-app")
	cfg.Lease, cfg.RequestTimeout = 20*time.Second, 40*time.Second
	cfg.Breaker.FailureThreshold = 1
	rep := runCampaign(t, cfg, []WorkerClient{NewHTTPWorker("w0", ts.URL)}, spec)
	if rep.Stats.Completed != 2 || rep.Stats.Failed != 1 || rep.Stats.Dispatched != 3 {
		t.Fatalf("stats %+v, want 2 completed, 1 failed, 3 dispatches", rep.Stats)
	}
	for _, r := range rep.Results {
		if (r.Res == nil) != (r.Job.App == "npb-nope") {
			t.Fatalf("%s: result %+v", r.Job.App, r.Res)
		}
	}
	if trips := rep.Stats.BreakerTrips["w0"]; trips != 0 {
		t.Fatalf("worker breaker tripped %d times", trips)
	}
	if st := s.Stats(); st.Admitted != 3 || st.Trips[serve.ClassAnalyze] != 0 {
		t.Fatalf("worker admitted=%d analyze trips=%d, want 3 and 0", st.Admitted, st.Trips[serve.ClassAnalyze])
	}
}

// TestCoordinatorStealsFromStraggler: a dispatch that outlives its
// lease has its job stolen — re-enqueued and completed by a later
// dispatch while the straggler still hangs — and the report matches a
// clean run exactly. The worker advertises two slots and hangs its first
// two claims (one per runner), so the steal path is the only way those jobs finish before
// the request timeout, and the lease timer always fires first.
func TestCoordinatorStealsFromStraggler(t *testing.T) {
	spec := npbSpec(4)
	rep := runCampaign(t, quickConfig("steal"), []WorkerClient{&fakeWorker{name: "straggler", hangFirst: 2, slots: 2}}, spec)
	if rep.Stats.Failed != 0 || rep.Stats.Completed != 4 {
		t.Fatalf("stats %+v", rep.Stats)
	}
	if rep.Stats.Steals == 0 {
		t.Fatal("no lease was stolen from the hung worker")
	}
	clean := runCampaign(t, quickConfig("steal"), []WorkerClient{&fakeWorker{name: "solo"}}, spec)
	if rep.Render() != clean.Render() {
		t.Fatalf("stolen-campaign report diverges from clean run:\n%s\nvs\n%s", rep.Render(), clean.Render())
	}
	if rep.Stats.DupMismatches != 0 {
		t.Fatalf("%d duplicate mismatches", rep.Stats.DupMismatches)
	}
}

// TestCoordinatorCollapsesDuplicateSpecEntries: two spellings of one job
// are one execution and one report line.
func TestCoordinatorCollapsesDuplicateSpecEntries(t *testing.T) {
	spec := Spec{Jobs: []serve.JobRequest{
		{Class: serve.ClassAnalyze, App: "npb-cg", Input: "train"},
		{Class: serve.ClassAnalyze, App: "npb-cg"}, // same job, defaults implicit
	}}
	rep := runCampaign(t, quickConfig("dedup"), []WorkerClient{&fakeWorker{name: "w"}}, spec)
	if rep.Stats.Jobs != 1 || len(rep.Results) != 1 {
		t.Fatalf("%d jobs in report, want the duplicates collapsed to 1", rep.Stats.Jobs)
	}
}
