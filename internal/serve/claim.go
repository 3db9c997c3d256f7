package serve

import (
	"encoding/json"
	"net/http"

	"looppoint/internal/artifact"
)

// POST /v1/claim is the worker half of the campaign fabric's lease
// protocol (DESIGN.md §14). A claim is a job submission made idempotent
// by a coordinator-chosen claim key — the job's content address: while a
// claim for key K is in flight, a second claim for K attaches to the
// running execution instead of admitting a duplicate. That is exactly
// the shape a work-stealing coordinator needs: when a lease expires and
// the job is re-dispatched, a re-dispatch that lands on the SAME worker
// (network blip, slow response) dedupes at the worker, while a
// re-dispatch to a different worker runs independently and the
// coordinator resolves the duplicate (first-complete wins).
//
// Every reply is one line of the repository's checksummed envelope
// (artifact.ChecksumLine) around the ClaimResponse record, so the
// coordinator can detect a reply corrupted in transit (or by the chaos
// plan) — in its key, status, outcome or error as much as in its result
// — and treat it as a retryable failure instead of recording garbage.

// ClaimRequest is the JSON body of POST /v1/claim.
type ClaimRequest struct {
	// Key is the coordinator's claim token — the job's content address.
	// Claims with equal keys dedupe onto one execution while in flight.
	Key string `json:"key"`
	// LeaseMS is the coordinator's lease on this dispatch. When the job
	// spec carries no deadline of its own, the lease bounds the worker-
	// side execution too: work the coordinator has given up on is work
	// this worker should stop doing.
	LeaseMS int64 `json:"lease_ms,omitempty"`
	// Job is the job spec, exactly as POST /v1/jobs takes it.
	Job JobRequest `json:"job"`
}

// ClaimResponse is the record inside every /v1/claim reply's envelope.
// Status echoes the HTTP status (the same per-job statuses /v1/jobs
// uses), so the record is self-describing once it has left its response.
type ClaimResponse struct {
	Key     string     `json:"key"`
	Status  int        `json:"status"`
	Outcome string     `json:"outcome"`
	Dedup   bool       `json:"dedup,omitempty"`
	Result  *JobResult `json:"result,omitempty"`
	Error   *errorBody `json:"error,omitempty"`
}

// claimEntry is one in-flight claim execution; duplicate claims block on
// done and then read outcome (the close is the publication barrier).
type claimEntry struct {
	done    chan struct{}
	outcome jobOutcome
}

// handleClaim runs one idempotent claim. The first claim for a key is
// the same submit call POST /v1/jobs makes — validation, drain check,
// class breaker, bounded queue — so claims are sheddable and
// breaker-gated like any other job. Duplicate claims while the first is
// in flight attach to its outcome without consuming admission capacity.
// Entries are dropped once the outcome is published: claims are an
// in-flight dedupe, not a cache — the coordinator's content-addressed
// cache owns completed results.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var creq ClaimRequest
	if bad, ok := decodeBody(r, &creq); !ok {
		writeClaim(w, "", bad, false)
		return
	}
	if creq.Key == "" {
		writeClaim(w, "", badRequest("missing claim key"), false)
		return
	}
	if creq.Job.ID == "" {
		creq.Job.ID = creq.Key
	}
	if creq.Job.DeadlineMS == 0 && creq.LeaseMS > 0 {
		creq.Job.DeadlineMS = creq.LeaseMS
	}
	s.claims.Add(1)

	s.claimMu.Lock()
	if e, ok := s.claimFlight[creq.Key]; ok {
		s.claimMu.Unlock()
		s.claimDedups.Add(1)
		select {
		case <-e.done:
			writeClaim(w, creq.Key, e.outcome, true)
		case <-r.Context().Done():
			// This duplicate's client gave up; the primary execution is
			// unaffected.
			writeClaim(w, creq.Key, jobOutcome{status: http.StatusServiceUnavailable,
				errB: errorBody{Outcome: "canceled", Error: r.Context().Err().Error()}}, true)
		}
		return
	}
	e := &claimEntry{done: make(chan struct{})}
	s.claimFlight[creq.Key] = e
	s.claimMu.Unlock()

	e.outcome = s.submit(r.Context(), &creq.Job)
	s.claimMu.Lock()
	delete(s.claimFlight, creq.Key)
	s.claimMu.Unlock()
	close(e.done)
	writeClaim(w, creq.Key, e.outcome, false)
}

// writeClaim renders one claim outcome as the full HTTP response: the
// ClaimResponse record inside its checksummed envelope line.
func writeClaim(w http.ResponseWriter, key string, o jobOutcome, dedup bool) {
	cr := ClaimResponse{Key: key, Status: o.status, Outcome: "ok", Dedup: dedup, Result: o.res}
	if o.res == nil {
		cr.Outcome, cr.Error = o.errB.Outcome, &o.errB
	}
	line, err := json.Marshal(cr)
	if err == nil {
		line, err = artifact.ChecksumLine(line)
	}
	if err != nil {
		// An unencodable result: not an envelope, so the coordinator reads
		// it as corrupt and retries instead of recording it.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	respond(w, o, json.RawMessage(line))
}
