package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"looppoint/internal/core"
)

// syncBuffer is a mutex-guarded log sink: the server serializes writes
// under its own lock, which a test reading the buffer does not take.
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
