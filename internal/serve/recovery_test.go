package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"looppoint/internal/core"
)

// syncBuffer is a mutex-guarded log sink: the server serializes writes
// under its own lock, but detached jobs may still be logging when a test
// reads the buffer.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestStatsEndpointServesProgressCounters: GET /v1/stats returns the
// bare Stats snapshot with the durable-progress counter fields present
// (zero without any progress activity), and rejects non-GET methods.
func TestStatsEndpointServesProgressCounters(t *testing.T) {
	ps := &core.ProgressStats{}
	s := startServer(t, Config{MaxInflight: 1, Progress: ps}, okRunner)
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"}); code != http.StatusOK {
		t.Fatalf("job status %d, want 200", code)
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/stats status %d, want 200", w.Code)
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad /v1/stats body %q: %v", w.Body.String(), err)
	}
	if st.Completed != 1 || st.Admitted != 1 {
		t.Fatalf("stats completed=%d admitted=%d, want 1/1", st.Completed, st.Admitted)
	}
	// The progress counters must be wired through (all zero here: the
	// stub runner never touches the durable-progress machinery).
	for field, v := range map[string]uint64{
		"progress_saves": st.ProgressSaves, "recoveries": st.Recoveries,
		"recovery_steps_saved": st.RecoveryStepsSaved, "ladder_falls": st.LadderFalls,
	} {
		if v != 0 {
			t.Fatalf("%s = %d before any durable work, want 0", field, v)
		}
	}
	if !strings.Contains(w.Body.String(), `"recovery_steps_saved"`) {
		t.Fatalf("/v1/stats body missing recovery_steps_saved: %s", w.Body.String())
	}
}

// TestProgressDeltaOnJobLogLine: with Config.Progress set, every
// worker-delivered outcome's log line carries the per-job
// durable-progress delta fields.
func TestProgressDeltaOnJobLogLine(t *testing.T) {
	var log syncBuffer
	ps := &core.ProgressStats{}
	s := startServer(t, Config{MaxInflight: 1, Progress: ps, Log: &log}, okRunner)
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"}); code != http.StatusOK {
		t.Fatal("job failed")
	}
	out := log.String()
	if !strings.Contains(out, "outcome=ok") || !strings.Contains(out, "progress_saves=0") ||
		!strings.Contains(out, "recoveries=0") || !strings.Contains(out, "steps_saved=0") {
		t.Fatalf("job log line missing progress delta fields:\n%s", out)
	}
}

// TestResubmitPendingJobs: a drain checkpoint written by one server is
// loaded and resubmitted into a fresh one — valid jobs run to
// completion and count as resubmitted, garbage entries are rejected,
// and nothing is double-run.
func TestResubmitPendingJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pending.jsonl")
	pending := []PendingJob{
		{State: "queued", Job: &JobRequest{ID: "p-1", Class: ClassAnalyze, App: "npb-cg"}},
		{State: "running", Job: &JobRequest{ID: "p-2", Class: ClassSimulate, App: "npb-ft"}},
		{State: "queued", Job: &JobRequest{ID: "p-bad", Class: "no-such-class", App: "x"}},
		{State: "queued", Job: nil},
	}
	if err := writePendingCheckpoint(path, pending); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadPendingCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(pending) {
		t.Fatalf("loaded %d pending jobs, want %d", len(loaded), len(pending))
	}

	var ran atomic.Int64
	s := startServer(t, Config{MaxInflight: 2}, func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		ran.Add(1)
		return &JobResult{ID: req.ID, Class: req.Class, App: req.App, Summary: "ok"}, nil
	})
	accepted, rejected := s.Resubmit(loaded)
	if accepted != 2 || rejected != 2 {
		t.Fatalf("Resubmit accepted=%d rejected=%d, want 2/2", accepted, rejected)
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Completed < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("resubmitted jobs did not complete: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := s.Stats()
	if st.Resubmitted != 2 || st.Admitted != 2 || ran.Load() != 2 {
		t.Fatalf("resubmitted=%d admitted=%d ran=%d, want 2/2/2", st.Resubmitted, st.Admitted, ran.Load())
	}
}

// TestResubmitDuringDrainRejectsAll: a draining server sheds every
// resubmitted job instead of enqueueing work it will never run.
func TestResubmitDuringDrainRejectsAll(t *testing.T) {
	s := New(Config{MaxInflight: 1, DrainDeadline: 50 * time.Millisecond}, okRunner)
	s.Start()
	s.Drain()
	accepted, rejected := s.Resubmit([]PendingJob{
		{State: "queued", Job: &JobRequest{Class: ClassAnalyze, App: "npb-cg"}},
	})
	if accepted != 0 || rejected != 1 {
		t.Fatalf("draining Resubmit accepted=%d rejected=%d, want 0/1", accepted, rejected)
	}
}
