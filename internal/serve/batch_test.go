package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// postBatch drives POST /v1/batch directly: returns the HTTP status and
// the decoded envelope (zero-valued on non-200).
func postBatch(t *testing.T, s *Server, breq BatchRequest) (int, BatchResponse) {
	t.Helper()
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
	var resp BatchResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad batch body %q: %v", w.Body.String(), err)
		}
	}
	return w.Code, resp
}

// TestServeBatchOK: a well-formed batch runs every sub-job, returns
// index-aligned per-job results, and counts once in the Batches stat
// while each sub-job counts individually in Admitted/Completed.
func TestServeBatchOK(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 2}, okRunner)
	code, resp := postBatch(t, s, BatchRequest{Jobs: []JobRequest{
		{ID: "b0", Class: ClassAnalyze, App: "npb-cg"},
		{ID: "b1", Class: ClassSimulate, App: "npb-cg"},
		{ID: "b2", Class: ClassReport, App: "npb-ft"},
	}})
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if len(resp.Results) != 3 || resp.Succeeded != 3 || resp.Shed != 0 || resp.Failed != 0 {
		t.Fatalf("bad envelope: %+v", resp)
	}
	for i, it := range resp.Results {
		if it.ID != fmt.Sprintf("b%d", i) {
			t.Errorf("result %d has id %q — results not index-aligned", i, it.ID)
		}
		if it.Status != http.StatusOK || it.Outcome != "ok" || it.Result == nil || it.Result.Summary != "ok" {
			t.Errorf("result %d not ok: %+v", i, it)
		}
	}
	st := s.Stats()
	if st.Batches != 1 || st.Admitted != 3 || st.Completed != 3 {
		t.Fatalf("stats batches=%d admitted=%d completed=%d, want 1/3/3", st.Batches, st.Admitted, st.Completed)
	}
}

// TestServeBatchValidation: structurally bad batches are rejected whole
// (empty, over the cap), while a bad sub-job inside a good batch fails
// only that item — the rest still run.
func TestServeBatchValidation(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 2}, okRunner)

	if code, _ := postBatch(t, s, BatchRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	big := BatchRequest{Jobs: make([]JobRequest, MaxBatchJobs+1)}
	for i := range big.Jobs {
		big.Jobs[i] = JobRequest{Class: ClassAnalyze, App: "npb-cg"}
	}
	if code, _ := postBatch(t, s, big); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", code)
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("rejected batches admitted jobs: %+v", st)
	}

	code, resp := postBatch(t, s, BatchRequest{Jobs: []JobRequest{
		{ID: "good", Class: ClassAnalyze, App: "npb-cg"},
		{ID: "bad-class", Class: "mine-bitcoin", App: "x"},
		{ID: "no-app", Class: ClassAnalyze},
	}})
	if code != http.StatusOK {
		t.Fatalf("mixed batch: status %d, want 200", code)
	}
	if resp.Succeeded != 1 || resp.Failed != 2 {
		t.Fatalf("mixed batch envelope: %+v", resp)
	}
	if it := resp.Results[0]; it.Status != http.StatusOK {
		t.Fatalf("good sub-job failed: %+v", it)
	}
	for _, i := range []int{1, 2} {
		if it := resp.Results[i]; it.Status != http.StatusBadRequest || it.Outcome != "bad_request" || it.Error == nil {
			t.Fatalf("bad sub-job %d not rejected per-item: %+v", i, it)
		}
	}
}

// TestServeBatchShedsPerSubJob: with the single worker already busy and
// a one-deep queue, a 2-job batch admits one sub-job and sheds the other
// with the same 429 shed_queue disposition a single request would get —
// batches get no admission bypass.
func TestServeBatchShedsPerSubJob(t *testing.T) {
	br := newBlockingRunner()
	s := startServer(t, Config{MaxInflight: 1, QueueDepth: 1}, br.run)

	holder := make(chan int, 1)
	go func() {
		code, _ := postJob(t, s, JobRequest{ID: "holder", Class: ClassAnalyze, App: "npb-cg"})
		holder <- code
	}()
	<-br.started // the only worker is now busy; the queue is empty

	done := make(chan BatchResponse, 1)
	go func() {
		_, resp := postBatch(t, s, BatchRequest{Jobs: []JobRequest{
			{ID: "b0", Class: ClassAnalyze, App: "npb-cg"},
			{ID: "b1", Class: ClassAnalyze, App: "npb-cg"},
		}})
		done <- resp
	}()
	waitFor(t, func() bool { return s.Stats().ShedQueue == 1 })
	close(br.release)
	resp := <-done

	if <-holder != http.StatusOK {
		t.Fatal("holder job failed")
	}
	if resp.Succeeded != 1 || resp.Shed != 1 {
		t.Fatalf("envelope %+v, want 1 succeeded + 1 shed", resp)
	}
	if it := resp.Results[0]; it.Status != http.StatusOK || it.Outcome != "ok" {
		t.Fatalf("queued sub-job did not finish: %+v", it)
	}
	shed := resp.Results[1]
	if shed.Status != http.StatusTooManyRequests || shed.Outcome != "shed_queue" ||
		shed.Error == nil || shed.Error.RetryAfterMS <= 0 {
		t.Fatalf("second sub-job not shed like a single request: %+v", shed)
	}
	if st := s.Stats(); st.ShedQueue != 1 || st.Completed != 2 {
		t.Fatalf("stats %+v, want shed_queue=1 completed=2", st)
	}
}

// TestServeBatchDrainMidBatch: draining while a batch is half-done
// finishes nothing new — the running sub-job is canceled, queued ones
// are flushed as drained and journaled — and the batch response still
// arrives with every disposition accounted.
func TestServeBatchDrainMidBatch(t *testing.T) {
	br := newBlockingRunner()
	s := New(Config{
		MaxInflight: 1, QueueDepth: 4,
		DrainDeadline: 300 * time.Millisecond,
	}, br.run)
	s.Start()

	done := make(chan BatchResponse, 1)
	go func() {
		_, resp := postBatch(t, s, BatchRequest{Jobs: []JobRequest{
			{ID: "b0", Class: ClassAnalyze, App: "npb-cg"},
			{ID: "b1", Class: ClassAnalyze, App: "npb-cg"},
			{ID: "b2", Class: ClassAnalyze, App: "npb-cg"},
		}})
		done <- resp
	}()
	<-br.started // one sub-job running...
	waitFor(t, func() bool { return s.Stats().Queued == 2 })

	ds := s.Drain()
	if ds.Clean {
		t.Fatal("drain reported clean with batch sub-jobs stuck")
	}
	resp := <-done
	if len(resp.Results) != 3 || resp.Succeeded != 0 {
		t.Fatalf("envelope %+v, want 3 results, none succeeded", resp)
	}
	outcomes := map[string]int{}
	for _, it := range resp.Results {
		outcomes[it.Outcome]++
	}
	if outcomes["drained"] != 2 || outcomes["canceled"] != 1 {
		t.Fatalf("outcomes %v, want 2 drained + 1 canceled", outcomes)
	}
	if ds.JournaledQueued != 2 || ds.JournaledRunning != 1 {
		t.Fatalf("journaled queued=%d running=%d, want 2/1", ds.JournaledQueued, ds.JournaledRunning)
	}

	// New batches shed whole while draining: every sub-job is shed_drain.
	code, resp := postBatch(t, s, BatchRequest{Jobs: []JobRequest{
		{Class: ClassAnalyze, App: "npb-cg"},
	}})
	if code != http.StatusOK || resp.Shed != 1 || resp.Results[0].Outcome != "shed_drain" {
		t.Fatalf("batch while draining: %d %+v, want shed_drain sub-job", code, resp)
	}
}

// TestServeBatchHalfOpenProbeAdmission: a batch arriving while its job
// class's breaker is half-open gets exactly HalfOpenProbes sub-jobs
// through — the probe — and sheds the rest with shed_breaker, results
// index-aligned with the request. The probe's success closes the
// breaker for the next batch. This pins the interaction between the
// breaker's bounded half-open probing and /v1/batch's admit-everything-
// first loop: a wide batch must not consume more probe slots than a
// stream of single requests would.
func TestServeBatchHalfOpenProbeAdmission(t *testing.T) {
	clk := newFakeClock()
	br := newBlockingRunner()
	run := func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		if req.App == "boom" {
			return nil, fmt.Errorf("dependency down")
		}
		return br.run(ctx, req)
	}
	s := startServer(t, Config{MaxInflight: 2, QueueDepth: 8,
		Breaker: BreakerOpts{FailureThreshold: 1, OpenFor: 10 * time.Second, HalfOpenProbes: 1, Now: clk.Now},
	}, run)

	// Trip the analyze breaker, then advance past the open hold so the
	// next admission probes half-open.
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "boom"}); code != http.StatusInternalServerError {
		t.Fatalf("trip job: status %d", code)
	}
	clk.Advance(11 * time.Second)

	done := make(chan BatchResponse, 1)
	go func() {
		_, resp := postBatch(t, s, BatchRequest{Jobs: []JobRequest{
			{ID: "p0", Class: ClassAnalyze, App: "npb-cg"},
			{ID: "p1", Class: ClassAnalyze, App: "npb-cg"},
			{ID: "p2", Class: ClassAnalyze, App: "npb-ft"},
			{ID: "p3", Class: ClassAnalyze, App: "npb-is"},
		}})
		done <- resp
	}()
	<-br.started // the probe sub-job is running
	// The admission loop may still be working through the probe's
	// siblings: wait until every one of them has met the breaker.
	waitFor(t, func() bool { st := s.Stats(); return st.Admitted+st.ShedBreaker >= 5 })
	if st := s.Stats(); st.Admitted != 2 || st.ShedBreaker != 3 {
		t.Fatalf("stats %+v, want exactly one probe admitted and 3 shed", st)
	}
	close(br.release)
	resp := <-done

	if resp.Succeeded != 1 || resp.Shed != 3 {
		t.Fatalf("envelope %+v, want 1 succeeded + 3 shed", resp)
	}
	if it := resp.Results[0]; it.ID != "p0" || it.Outcome != "ok" {
		t.Fatalf("probe slot should go to the first sub-job: %+v", it)
	}
	for i, it := range resp.Results[1:] {
		if it.Status != http.StatusServiceUnavailable || it.Outcome != "shed_breaker" ||
			it.Error == nil || it.Error.Breaker != "half-open" {
			t.Fatalf("sub-job %d not shed by the half-open breaker: %+v", i+1, it)
		}
		if it.ID != fmt.Sprintf("p%d", i+1) {
			t.Fatalf("results not index-aligned: slot %d carries %q", i+1, it.ID)
		}
	}
	// The successful probe closed the breaker: a follow-up batch admits
	// every sub-job.
	if b := s.Breaker(ClassAnalyze); b.State() != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", b.State())
	}
	_, resp = postBatch(t, s, BatchRequest{Jobs: []JobRequest{
		{Class: ClassAnalyze, App: "npb-cg"},
		{Class: ClassAnalyze, App: "npb-ft"},
	}})
	if resp.Succeeded != 2 {
		t.Fatalf("post-close batch %+v, want both sub-jobs to run", resp)
	}
}

// TestServeBatchHalfOpenProbeRace: two batches racing into a half-open
// breaker still admit exactly one probe between them — concurrent batch
// admission loops cannot widen the probe window.
func TestServeBatchHalfOpenProbeRace(t *testing.T) {
	clk := newFakeClock()
	br := newBlockingRunner()
	run := func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		if req.App == "boom" {
			return nil, fmt.Errorf("dependency down")
		}
		return br.run(ctx, req)
	}
	s := startServer(t, Config{MaxInflight: 2, QueueDepth: 16,
		Breaker: BreakerOpts{FailureThreshold: 1, OpenFor: 10 * time.Second, HalfOpenProbes: 1, Now: clk.Now},
	}, run)
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "boom"}); code != http.StatusInternalServerError {
		t.Fatalf("trip job: status %d", code)
	}
	clk.Advance(11 * time.Second)

	const jobsPerBatch = 4
	results := make(chan BatchResponse, 2)
	for b := 0; b < 2; b++ {
		go func() {
			_, resp := postBatch(t, s, BatchRequest{Jobs: []JobRequest{
				{Class: ClassAnalyze, App: "npb-cg"},
				{Class: ClassAnalyze, App: "npb-cg"},
				{Class: ClassAnalyze, App: "npb-ft"},
				{Class: ClassAnalyze, App: "npb-is"},
			}})
			results <- resp
		}()
	}
	<-br.started // exactly one probe is running across both batches
	waitFor(t, func() bool { return s.Stats().ShedBreaker == 2*jobsPerBatch-1 })
	close(br.release)

	succeeded, shed := 0, 0
	for b := 0; b < 2; b++ {
		resp := <-results
		succeeded += resp.Succeeded
		shed += resp.Shed
	}
	if succeeded != 1 || shed != 2*jobsPerBatch-1 {
		t.Fatalf("across racing batches: %d succeeded, %d shed; want exactly 1 probe through", succeeded, shed)
	}
	if st := s.Stats(); st.Admitted != 2 {
		t.Fatalf("stats %+v: the breaker admitted more than the probe", st)
	}
}
