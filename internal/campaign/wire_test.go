package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"looppoint/internal/pool"
	"looppoint/internal/serve"
)

// cannedTransport answers every request with one fixed reply — the
// transport as a corrupting network would present it to HTTPWorker.
type cannedTransport struct {
	status int
	body   []byte
}

func (c cannedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: c.status, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(c.body))}, nil
}

func cannedClaim(status int, body []byte, key string) (*ClaimOutcome, error) {
	w := &HTTPWorker{name: "canned", base: "http://canned", hc: &http.Client{Transport: cannedTransport{status, body}}}
	return w.Claim(context.Background(), key, 1000, serve.JobRequest{})
}

// captureReplies drives a real serve.Server's /v1/claim once per reply
// kind and returns the raw bodies: a success, a breaker shed, a lease
// timeout and a bad request, each for claim key "k".
func captureReplies(t *testing.T) map[string]*httptest.ResponseRecorder {
	t.Helper()
	s := serve.New(serve.Config{MaxInflight: 1, Breaker: serve.BreakerOpts{FailureThreshold: 1}},
		func(ctx context.Context, req *serve.JobRequest) (*serve.JobResult, error) {
			switch req.App {
			case "boom":
				return nil, errors.New("dependency down")
			case "hang":
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return fakeResult(*req), nil
		})
	s.Start()
	t.Cleanup(func() { s.Drain() })
	claim := func(creq serve.ClaimRequest) *httptest.ResponseRecorder {
		body, _ := json.Marshal(creq)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/claim", bytes.NewReader(body)))
		return w
	}
	job := func(class, app string) serve.JobRequest { return serve.JobRequest{Class: class, App: app} }
	out := map[string]*httptest.ResponseRecorder{
		"ok":          claim(serve.ClaimRequest{Key: "k", Job: job(serve.ClassAnalyze, "npb-cg")}),
		"timeout":     claim(serve.ClaimRequest{Key: "k", LeaseMS: 5, Job: job(serve.ClassReport, "hang")}),
		"bad_request": claim(serve.ClaimRequest{Key: "k", Job: job("mine-bitcoin", "x")}),
	}
	claim(serve.ClaimRequest{Key: "trip", Job: job(serve.ClassAnalyze, "boom")}) // opens analyze's breaker
	out["shed_breaker"] = claim(serve.ClaimRequest{Key: "k", Job: job(serve.ClassAnalyze, "npb-cg")})
	return out
}

// TestClaimReplyBitFlipMatrix: every single-bit flip of a claim reply —
// a 200 and each non-200 kind, at every byte offset, every bit — makes
// HTTPWorker.Claim return ErrCorrupt. The one family that does not is
// listed, not skipped: encoding/json matches object keys without regard
// to case, so flipping the case bit of a letter in the envelope's own two
// key names ("fnv1a", "record") leaves a line that still verifies — over
// the unchanged record, so what Claim returns must equal the clean
// outcome. A reply that verifies but echoes another claim's key is
// corrupt too.
func TestClaimReplyBitFlipMatrix(t *testing.T) {
	for kind, rec := range captureReplies(t) {
		body := rec.Body.Bytes()
		clean, err := cannedClaim(rec.Code, body, "k")
		if err != nil {
			t.Fatalf("%s: clean reply rejected: %v", kind, err)
		}
		if clean.Status != rec.Code || (kind == "ok") != (clean.Result != nil) || (kind != "ok" && clean.Outcome != kind) {
			t.Fatalf("%s: clean reply decoded as %+v", kind, clean)
		}
		if _, err := cannedClaim(rec.Code, body, "other-key"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: reply for key k accepted as the answer to other-key (err %v)", kind, err)
		}
		caseBlind := 0
		for off := range body {
			for bit := 0; bit < 8; bit++ {
				mut := bytes.Clone(body)
				mut[off] ^= 1 << bit
				got, err := cannedClaim(rec.Code, mut, "k")
				if errors.Is(err, ErrCorrupt) {
					continue
				}
				if err != nil || !bytes.EqualFold(mut, body) || !reflect.DeepEqual(got, clean) {
					t.Fatalf("%s: flip of bit %d at offset %d (%q -> %q) was not rejected: outcome %+v err %v",
						kind, bit, off, body[off], mut[off], got, err)
				}
				caseBlind++
			}
		}
		if want := 4 + 6; caseBlind != want { // the letters of "fnv1a" and of "record"
			t.Fatalf("%s: %d flips verified over the unchanged record, want only the %d key-name letters", kind, caseBlind, want)
		}
	}
}

// TestReadyzAdvertisesSlots: a worker's /readyz carries its filled
// MaxInflight as slots and HTTPWorker.Ready returns it; a 200 without
// slots (an older worker) reads as one slot; a draining worker is not
// ready.
func TestReadyzAdvertisesSlots(t *testing.T) {
	for _, c := range []struct{ maxInflight, want int }{{3, 3}, {0, pool.DefaultWidth()}} {
		_, ts := startWorker(t, serve.Config{MaxInflight: c.maxInflight}, jobRunner)
		got, err := NewHTTPWorker("w", ts.URL).Ready(context.Background())
		if err != nil || got != c.want {
			t.Fatalf("MaxInflight %d: Ready = %d, %v; want %d slots", c.maxInflight, got, err, c.want)
		}
	}
	canned := func(status int, body string) (int, error) {
		w := &HTTPWorker{name: "canned", base: "http://canned", hc: &http.Client{Transport: cannedTransport{status, []byte(body)}}}
		return w.Ready(context.Background())
	}
	if got, err := canned(http.StatusOK, `{"ready":true}`); err != nil || got != 1 {
		t.Fatalf("reply without slots: Ready = %d, %v; want 1 slot", got, err)
	}
	if got, err := canned(http.StatusServiceUnavailable, `{"ready":false,"reason":"draining"}`); err == nil || got != 0 {
		t.Fatalf("draining reply: Ready = %d, %v; want an error and 0 slots", got, err)
	}
}

// corruptingTransport forwards to a real worker and damages the first n
// replies: alternately one flipped bit at a moving offset, and a status
// rewritten from 200 to 400 — the damage that, accepted, would fail the
// job permanently instead of retrying it.
type corruptingTransport struct {
	n    int64
	seen atomic.Int64
}

func (c *corruptingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/claim" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if i := c.seen.Add(1); i <= c.n {
		if i%2 == 0 {
			body = bytes.Replace(body, []byte(`"status":200`), []byte(`"status":400`), 1)
		} else {
			body[int(i*37)%len(body)] ^= 1
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestCoordinatorRetriesCorruptReplies: corrupt claim replies are counted
// and retried — never recorded, never a permanent failure — and the
// campaign's report is byte-identical to an undisturbed run's.
func TestCoordinatorRetriesCorruptReplies(t *testing.T) {
	spec := npbSpec(8)
	want := baselineReport(t, "corrupt", spec)

	_, ts := startWorker(t, serve.Config{MaxInflight: 2, QueueDepth: 8}, jobRunner)
	w := NewHTTPWorker("w", ts.URL)
	w.hc = &http.Client{Transport: &corruptingTransport{n: 16}}
	cfg := chaosConfig("corrupt")
	cfg.Lease, cfg.RequestTimeout = time.Second, 2*time.Second // nothing here may steal
	rep := runCampaign(t, cfg, []WorkerClient{w}, spec)

	if rep.Stats.Failed != 0 || rep.Stats.Completed != 8 || rep.Stats.DupMismatches != 0 {
		t.Fatalf("corrupt replies cost the campaign jobs: %s", rep.Stats.Line())
	}
	if rep.Stats.CorruptReplies != 16 || rep.Stats.Dispatched != 8+16 {
		t.Fatalf("want 16 corrupt replies, each retried once: %s", rep.Stats.Line())
	}
	if got := rep.Render(); got != want {
		t.Fatalf("report diverges from the undisturbed run:\n--- corrupted\n%s--- baseline\n%s", got, want)
	}
	if rep.Stats.CacheStores != 8 {
		t.Fatalf("cache stored %d results, want exactly the 8 verified ones", rep.Stats.CacheStores)
	}
}
