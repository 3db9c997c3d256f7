package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"looppoint/internal/artifact"
)

// postClaim drives /v1/claim directly, verifies the reply's checksummed
// envelope and decodes the record inside.
func postClaim(t *testing.T, s *Server, req ClaimRequest) (int, ClaimResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/claim", bytes.NewReader(body)))
	var out ClaimResponse
	rec, ok := artifact.VerifyLine(w.Body.Bytes())
	if !ok {
		t.Fatalf("claim reply is not a verifying envelope: %q", w.Body.String())
	}
	if err := json.Unmarshal(rec, &out); err != nil {
		t.Fatalf("bad claim record %q: %v", rec, err)
	}
	return w.Code, out
}

// TestClaimOK: a claim runs like a job, echoes its key, and answers in
// an envelope that verifies (postClaim) around the same result
// /v1/jobs would have sent.
func TestClaimOK(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 2}, okRunner)
	code, cr := postClaim(t, s, ClaimRequest{Key: "cafe01",
		Job: JobRequest{Class: ClassAnalyze, App: "npb-cg"}})
	if code != http.StatusOK || cr.Status != http.StatusOK || cr.Outcome != "ok" {
		t.Fatalf("claim: code=%d %+v", code, cr)
	}
	if cr.Key != "cafe01" || cr.Dedup {
		t.Fatalf("claim envelope: %+v", cr)
	}
	if cr.Result == nil || cr.Result.ID != "cafe01" {
		t.Fatalf("claim result should inherit the key as job id: %+v", cr.Result)
	}
	if cr.Result.Summary != "ok" || cr.Error != nil {
		t.Fatalf("claim result: %+v error %+v", cr.Result, cr.Error)
	}
	if st := s.Stats(); st.Claims != 1 || st.ClaimDedups != 0 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestClaimValidation: unparseable body, missing key, bad class —
// rejected with 400 inside a verifying envelope, and nothing admitted.
func TestClaimValidation(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 1}, okRunner)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/claim", bytes.NewReader([]byte("{nope"))))
	if rec, ok := artifact.VerifyLine(w.Body.Bytes()); w.Code != http.StatusBadRequest || !ok || !bytes.Contains(rec, []byte(`"bad_request"`)) {
		t.Fatalf("bad JSON: %d %q", w.Code, w.Body.String())
	}
	if code, cr := postClaim(t, s, ClaimRequest{Job: JobRequest{Class: ClassAnalyze, App: "x"}}); code != http.StatusBadRequest || cr.Outcome != "bad_request" {
		t.Fatalf("missing key: %d %+v", code, cr)
	}
	if code, cr := postClaim(t, s, ClaimRequest{Key: "k", Job: JobRequest{Class: "nope", App: "x"}}); code != http.StatusBadRequest || cr.Outcome != "bad_request" {
		t.Fatalf("bad class: %d %+v", code, cr)
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("bad claims were admitted: %+v", st)
	}
}

// TestClaimDedupesInFlight: N concurrent claims with the same key run
// the job once; every duplicate attaches to the same outcome and says
// so. Distinct keys still run independently.
func TestClaimDedupesInFlight(t *testing.T) {
	br := newBlockingRunner()
	s := startServer(t, Config{MaxInflight: 2}, br.run)

	const dups = 4
	var wg sync.WaitGroup
	results := make([]ClaimResponse, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = postClaim(t, s, ClaimRequest{Key: "shared",
				Job: JobRequest{Class: ClassAnalyze, App: "npb-cg"}})
		}(i)
	}
	<-br.started // exactly one execution began
	waitFor(t, func() bool { return s.Stats().ClaimDedups == dups-1 })
	close(br.release)
	wg.Wait()

	dedups := 0
	for _, cr := range results {
		if cr.Status != http.StatusOK || cr.Result == nil {
			t.Fatalf("claim did not share the one execution: %+v", cr)
		}
		if cr.Dedup {
			dedups++
		}
	}
	if dedups != dups-1 {
		t.Fatalf("%d claims report dedup, want %d", dedups, dups-1)
	}
	if st := s.Stats(); st.Admitted != 1 || st.Completed != 1 || st.Claims != dups {
		t.Fatalf("stats %+v, want one admission for %d claims", st, dups)
	}

	// The entry is gone after completion: a later claim re-runs the job —
	// claims dedupe in-flight work, they do not cache results. (release
	// is closed, so the rerun finishes immediately.)
	if _, cr := postClaim(t, s, ClaimRequest{Key: "shared",
		Job: JobRequest{Class: ClassAnalyze, App: "npb-cg"}}); cr.Dedup {
		t.Fatalf("completed claim should not dedupe a fresh one: %+v", cr)
	}
	if st := s.Stats(); st.Admitted != 2 {
		t.Fatalf("fresh claim not re-admitted: %+v", st)
	}
}

// TestClaimShedsLikeJobs: drain and breaker gates apply to claims with
// the same typed outcomes as /v1/jobs.
func TestClaimShedsLikeJobs(t *testing.T) {
	clk := newFakeClock()
	s := startServer(t, Config{MaxInflight: 1,
		Breaker: BreakerOpts{FailureThreshold: 1, Now: clk.Now}},
		func(ctx context.Context, req *JobRequest) (*JobResult, error) {
			return nil, fmt.Errorf("boom")
		})
	if code, cr := postClaim(t, s, ClaimRequest{Key: "k1",
		Job: JobRequest{Class: ClassAnalyze, App: "a"}}); code != http.StatusInternalServerError || cr.Outcome != "error" {
		t.Fatalf("first claim: %d %+v", code, cr)
	}
	// One failure tripped the analyze breaker: the next claim sheds.
	code, cr := postClaim(t, s, ClaimRequest{Key: "k2",
		Job: JobRequest{Class: ClassAnalyze, App: "a"}})
	if code != http.StatusServiceUnavailable || cr.Outcome != "shed_breaker" || cr.Error == nil || cr.Error.RetryAfterMS <= 0 {
		t.Fatalf("breaker-gated claim: %d %+v", code, cr)
	}
}

// TestClaimLeaseBoundsDeadline: a claim whose job has no deadline of its
// own inherits the lease as its deadline — work the coordinator has
// given up on is work the worker stops doing.
func TestClaimLeaseBoundsDeadline(t *testing.T) {
	br := newBlockingRunner()
	s := startServer(t, Config{MaxInflight: 1}, br.run)
	done := make(chan ClaimResponse, 1)
	go func() {
		_, cr := postClaim(t, s, ClaimRequest{Key: "leased", LeaseMS: 30,
			Job: JobRequest{Class: ClassAnalyze, App: "npb-cg"}})
		done <- cr
	}()
	<-br.started
	cr := <-done // the 30ms lease expires; the runner never releases
	if cr.Status != http.StatusGatewayTimeout || cr.Outcome != "timeout" {
		t.Fatalf("leased claim should time out at the lease: %+v", cr)
	}
	close(br.release)
}
