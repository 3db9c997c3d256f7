package serve

import (
	"errors"
	"net/http"
	"strings"
	"testing"

	"looppoint/internal/harness"
)

// TestCanonical: each default is spelled out, request plumbing and the
// thread count pass through untouched, and every spec no worker can run
// is an ErrBadJob naming what is wrong.
func TestCanonical(t *testing.T) {
	for _, c := range []struct {
		name string
		in   JobRequest
		want JobRequest
	}{
		{"defaults", JobRequest{Class: ClassAnalyze, App: "npb-cg"},
			JobRequest{Class: ClassAnalyze, App: "npb-cg", Input: "train", Policy: "passive", Core: "ooo"}},
		{"explicit", JobRequest{Class: ClassReport, App: "npb-cg", Input: "ref", Policy: "active", Core: "inorder", Full: true},
			JobRequest{Class: ClassReport, App: "npb-cg", Input: "ref", Policy: "active", Core: "inorder", Full: true}},
		{"plumbing and threads", JobRequest{ID: "j1", DeadlineMS: 70, Class: ClassReport, App: "657.xz_s.2", Threads: 2},
			JobRequest{ID: "j1", DeadlineMS: 70, Class: ClassReport, App: "657.xz_s.2", Threads: 2,
				Input: "train", Policy: "passive", Core: "ooo"}},
		{"npb class", JobRequest{Class: ClassAnalyze, App: "npb-ft", Input: "C"},
			JobRequest{Class: ClassAnalyze, App: "npb-ft", Input: "C", Policy: "passive", Core: "ooo"}},
	} {
		got, err := Canonical(c.in)
		if err != nil || got != c.want {
			t.Errorf("%s: Canonical(%+v) = %+v, %v; want %+v", c.name, c.in, got, err, c.want)
		}
	}

	for _, c := range []struct {
		name string
		in   JobRequest
		says []string
	}{
		{"simulate", JobRequest{Class: "simulate", App: "npb-cg"}, []string{`"simulate"`, "analyze", "report"}},
		{"no class", JobRequest{App: "npb-cg"}, []string{"unknown class"}},
		{"no app", JobRequest{Class: ClassAnalyze}, []string{"missing app"}},
		{"negative threads", JobRequest{Class: ClassAnalyze, App: "npb-cg", Threads: -1}, []string{"negative thread count -1"}},
		{"input", JobRequest{Class: ClassAnalyze, App: "npb-cg", Input: "tset"}, []string{`"tset"`, "train"}},
		{"policy", JobRequest{Class: ClassAnalyze, App: "npb-cg", Policy: "pasive"}, []string{`"pasive"`}},
		{"core", JobRequest{Class: ClassReport, App: "npb-cg", Core: "OOO"}, []string{`"OOO"`}},
	} {
		_, err := Canonical(c.in)
		if !errors.Is(err, ErrBadJob) {
			t.Errorf("%s: Canonical(%+v) error %v, want an ErrBadJob", c.name, c.in, err)
			continue
		}
		for _, s := range c.says {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("%s: error %q does not name %s", c.name, err, s)
			}
		}
	}
}

// TestServeBadSpecNotAdmitted: a spec Canonical rejects is answered 400
// on both wire forms before admission — no queue slot, no run.
func TestServeBadSpecNotAdmitted(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 1}, okRunner)
	bad := JobRequest{Class: ClassReport, App: "npb-cg", Policy: "activ"}
	if code, body := postJob(t, s, bad); code != http.StatusBadRequest || body["outcome"] != "bad_request" {
		t.Fatalf("POST /v1/jobs with a bad policy: %d %v, want 400 bad_request", code, body)
	}
	if code, cr := postClaim(t, s, ClaimRequest{Key: "k", Job: bad}); code != http.StatusBadRequest || cr.Outcome != "bad_request" {
		t.Fatalf("POST /v1/claim with a bad policy: %d %+v, want 400 bad_request", code, cr)
	}
	for _, j := range []JobRequest{
		{Class: ClassReport, App: "npb-cg", Core: "gem5"},
		{Class: ClassAnalyze, App: "npb-cg", Input: "tset"},
		{Class: ClassAnalyze, App: "npb-cg", Threads: -4},
	} {
		if code, _ := postJob(t, s, j); code != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400", j, code)
		}
	}
	if st := s.Stats(); st.Admitted != 0 || st.Errors != 0 {
		t.Fatalf("bad specs reached admission: admitted=%d errors=%d", st.Admitted, st.Errors)
	}
}

// TestEvaluatorRunnerUnknownAppIsBadRequest: an app the workload registry
// does not know is the spec's fault, not the dependency's — the server
// runs it once, answers 400 bad_request, and its class breaker neither
// counts nor trips.
func TestEvaluatorRunnerUnknownAppIsBadRequest(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 1, Breaker: BreakerOpts{FailureThreshold: 1}},
		EvaluatorRunner(harness.NewEvaluator(harness.Options{Parallelism: 1})))
	for i := 0; i < 2; i++ {
		code, body := postJob(t, s, JobRequest{Class: ClassReport, App: "npb-nope", Input: "test"})
		if code != http.StatusBadRequest || body["outcome"] != "bad_request" ||
			!strings.Contains(body["error"].(string), `unknown app "npb-nope"`) {
			t.Fatalf("unknown app, request %d: %d %v, want 400 bad_request naming the app", i, code, body)
		}
	}
	if st := s.Stats(); st.Admitted != 2 || st.Errors != 2 || st.ShedBreaker != 0 {
		t.Fatalf("stats admitted=%d errors=%d shed_breaker=%d, want 2, 2, 0", st.Admitted, st.Errors, st.ShedBreaker)
	}
	if b := s.breakers[ClassReport]; b.State() != BreakerClosed || b.Trips() != 0 {
		t.Fatalf("report breaker %v with %d trips after unknown apps, want closed and 0", b.State(), b.Trips())
	}
}
