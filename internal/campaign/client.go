package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"looppoint/internal/artifact"
	"looppoint/internal/serve"
)

// ErrCorrupt marks a worker response that failed its envelope checksum
// (or carried the wrong claim key). The coordinator treats it
// as a retryable dispatch failure — corrupt data is re-fetched, never
// recorded.
var ErrCorrupt = errors.New("campaign: corrupt worker response")

// ClaimOutcome is one delivered claim reply, transport-verified: every
// field passed the envelope checksum and the reply echoes the right key.
type ClaimOutcome struct {
	Status       int
	Outcome      string
	Dedup        bool
	Result       *serve.JobResult
	Err          string
	RetryAfterMS int64
}

// WorkerClient is one worker as the coordinator sees it: a name, a
// readiness probe that returns the worker's slot count (how many jobs it
// runs at once), and the claim call. The HTTP implementation below is the
// real one; tests substitute in-process fakes.
type WorkerClient interface {
	Name() string
	Ready(ctx context.Context) (slots int, err error)
	Claim(ctx context.Context, key string, leaseMS int64, job serve.JobRequest) (*ClaimOutcome, error)
}

// HTTPWorker speaks to one lpserved instance over HTTP.
type HTTPWorker struct {
	name string
	base string
	hc   *http.Client
}

// NewHTTPWorker builds a client for the worker at baseURL (scheme +
// host[:port]); name defaults to the host part. The per-request timeout
// is the coordinator's job: it bounds every call with a context.
func NewHTTPWorker(name, baseURL string) *HTTPWorker {
	base := strings.TrimRight(baseURL, "/")
	if name == "" {
		name = strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
	}
	return &HTTPWorker{name: name, base: base, hc: &http.Client{}}
}

func (w *HTTPWorker) Name() string { return w.name }

// Ready probes GET /readyz. A 200 reply {"ready":true,"slots":N} means
// the worker is admitting work and runs N jobs at once; a reply without
// slots (an older worker) counts as 1, so no worker is sent more claims
// than it is known to run.
func (w *HTTPWorker) Ready(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/readyz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("campaign: %s not ready: %s", w.name, resp.Status)
	}
	var body struct {
		Slots int `json:"slots"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		return 0, fmt.Errorf("campaign: %s: bad /readyz reply: %w", w.name, err)
	}
	return max(body.Slots, 1), nil
}

// Claim POSTs one claim and verifies the reply: the body must be one
// checksummed envelope (artifact.VerifyLine) around a serve.ClaimResponse
// that echoes this claim's key. Anything else — flipped bits anywhere in
// the reply, a foreign key, a non-envelope body — returns an error
// wrapping ErrCorrupt; a delivered non-200 outcome (shed, timeout, server
// error) is NOT a Go error — it comes back as a ClaimOutcome for the
// coordinator to classify.
func (w *HTTPWorker) Claim(ctx context.Context, key string, leaseMS int64, job serve.JobRequest) (*ClaimOutcome, error) {
	body, err := json.Marshal(serve.ClaimRequest{Key: key, LeaseMS: leaseMS, Job: job})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/claim", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}

	var cr serve.ClaimResponse
	rec, ok := artifact.VerifyLine(raw)
	if !ok || json.Unmarshal(rec, &cr) != nil {
		return nil, fmt.Errorf("%w: claim reply from %s fails its envelope checksum", ErrCorrupt, w.name)
	}
	if cr.Key != key {
		return nil, fmt.Errorf("%w: %s answered claim %s with key %s", ErrCorrupt, w.name, key, cr.Key)
	}
	out := &ClaimOutcome{Status: cr.Status, Outcome: cr.Outcome, Dedup: cr.Dedup, Result: cr.Result}
	if cr.Error != nil {
		out.Err, out.RetryAfterMS = cr.Error.Error, cr.Error.RetryAfterMS
	}
	return out, nil
}
