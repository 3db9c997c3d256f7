package campaign

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"looppoint/internal/artifact"
	"looppoint/internal/serve"
)

// jobRunner is the workers' deterministic job runner: the fake result (a
// pure function of the spec). Each job takes a few milliseconds, like a
// real one, so claims sent to a busy worker meet a job still running and
// a queue still full.
func jobRunner(ctx context.Context, req *serve.JobRequest) (*serve.JobResult, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(10 * time.Millisecond):
	}
	return fakeResult(*req), nil
}

// chaosRunner is jobRunner for the chaos drill: the n-th run, counted
// across every worker that shares it, flakes or stalls past the lease as
// a pure function of (seed, n) — about one run in three fails (six at
// most), and of the rest about one in four stalls 150 ms (four at most).
func chaosRunner(seed uint64) serve.RunFunc {
	var runs, fails, stalls atomic.Uint64
	return func(ctx context.Context, req *serve.JobRequest) (*serve.JobResult, error) {
		n := runs.Add(1) - 1
		h := artifact.Checksum([]byte(fmt.Sprintf("%d/%d", seed, n)))
		switch {
		case h%3 == 0 && fails.Add(1) <= 6:
			return nil, fmt.Errorf("chaos: run %d fails", n)
		case h%4 == 0 && stalls.Add(1) <= 4:
			time.Sleep(150 * time.Millisecond)
		}
		return jobRunner(ctx, req)
	}
}

// chaosTransport is the drill's network between the coordinator and every
// worker. The n-th claim it carries, counted across all workers, meets a
// fate that is a pure function of (seed, n): about one claim in five is
// dropped before it is sent (four at most), and of the rest about one
// reply in four that carries a result comes back with the low bit of its
// region count flipped (three at most). The reply stays well-formed JSON
// with a wrong number in it: damage only the envelope checksum catches.
type chaosTransport struct {
	seed                 uint64
	claims, drops, flips atomic.Uint64
}

func (c *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/claim" {
		return http.DefaultTransport.RoundTrip(req)
	}
	n := c.claims.Add(1) - 1
	h := artifact.Checksum([]byte(fmt.Sprintf("%d/%d", c.seed, n)))
	if h%5 == 0 && c.drops.Add(1) <= 4 {
		req.Body.Close()
		return nil, fmt.Errorf("chaos: claim %d dropped", n)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || (h>>8)%4 != 0 {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	const regions = `"regions":`
	if i := bytes.Index(body, []byte(regions)); i >= 0 && c.flips.Add(1) <= 3 {
		body[i+len(regions)] ^= 1
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// chaosSeed is FAULTS_SEED when set (each CI matrix seed replays its own
// failure pattern), else 1.
func chaosSeed() uint64 {
	if n, err := strconv.ParseUint(os.Getenv("FAULTS_SEED"), 10, 64); err == nil {
		return n
	}
	return 1
}

// startWorker boots one real serve.Server running run behind an httptest
// listener — a genuine lpserved fleet member, minus the process boundary.
func startWorker(t *testing.T, cfg serve.Config, run serve.RunFunc) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg, run)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

// chaosConfig shrinks the fabric's time constants so the drill's kills,
// hangs, and storms all land inside a few hundred milliseconds.
func chaosConfig(tag string) Config {
	cfg := quickConfig(tag)
	cfg.Lease = 60 * time.Millisecond
	cfg.RequestTimeout = 250 * time.Millisecond
	cfg.MaxAttempts = 40
	return cfg
}

// overAdvertised reports more slots than its worker runs, so the
// coordinator keeps that many claims in flight against it — the pressure
// a one-slot, one-deep worker answers with 429/503 storms.
type overAdvertised struct {
	WorkerClient
	slots int
}

func (o overAdvertised) Ready(ctx context.Context) (int, error) {
	if _, err := o.WorkerClient.Ready(ctx); err != nil {
		return 0, err
	}
	return o.slots, nil
}

// baselineReport runs the campaign on one healthy worker over a clean
// network — the reference the chaos run must reproduce byte-for-byte.
func baselineReport(t *testing.T, tag string, spec Spec) string {
	t.Helper()
	_, ts := startWorker(t, serve.Config{MaxInflight: 4, QueueDepth: 16}, jobRunner)
	rep := runCampaign(t, chaosConfig(tag), []WorkerClient{NewHTTPWorker("baseline", ts.URL)}, spec)
	if rep.Stats.Failed != 0 {
		t.Fatalf("baseline failed jobs: %+v", rep.Stats)
	}
	return rep.Render()
}

// TestCampaignChaosFaultDrill is the fabric's chaos drill: a 3-worker
// fleet of real serve.Servers where, mid-campaign,
//
//   - one worker is SIGKILL-equivalent killed (listener torn down),
//   - jobs fail and stall longer than the lease (stealing),
//   - claim calls drop at the transport,
//   - response bytes are corrupted in flight (checksum must catch them),
//   - and tiny queues turn coordinator pressure into 429/503 storms,
//
// and the campaign must still converge with zero failed jobs, zero
// duplicate mismatches, and a report byte-identical to the single-node
// undisturbed run. Each drop, flip, failure and stall is a pure function of
// FAULTS_SEED and its index, so each CI matrix seed replays a distinct,
// reproducible failure pattern.
func TestCampaignChaosFaultDrill(t *testing.T) {
	spec := npbSpec(8)
	for i := range spec.Jobs {
		if i%3 == 0 {
			spec.Jobs[i].Class = serve.ClassReport
		}
	}
	want := baselineReport(t, "chaos", spec)

	seed := chaosSeed()
	chaos := &chaosTransport{seed: seed}
	hc := &http.Client{Transport: chaos}
	worker := func(name, url string) WorkerClient {
		w := NewHTTPWorker(name, url)
		w.hc = hc
		return overAdvertised{w, 3}
	}

	// Tiny admission windows: each worker runs one job and queues one, but
	// advertises three slots, so the coordinator's third claim sheds.
	run := chaosRunner(seed)
	s0, ts0 := startWorker(t, serve.Config{MaxInflight: 1, QueueDepth: 1}, run)
	s1, ts1 := startWorker(t, serve.Config{MaxInflight: 1, QueueDepth: 1}, run)
	s2, ts2 := startWorker(t, serve.Config{MaxInflight: 1, QueueDepth: 1}, run)
	// Kill worker 2 mid-flight. httptest.Close waits for in-flight
	// handlers, so tear the listener down from a goroutine exactly like
	// a kill -9 would look from the coordinator's side: connections die,
	// new dials are refused.
	kill := time.AfterFunc(30*time.Millisecond, func() { ts2.CloseClientConnections(); ts2.Close() })
	defer kill.Stop()

	rep := runCampaign(t, chaosConfig("chaos"), []WorkerClient{
		worker("w0", ts0.URL), worker("w1", ts1.URL), worker("w2", ts2.URL),
	}, spec)

	if rep.Stats.Failed != 0 {
		t.Fatalf("campaign lost jobs under chaos: %s", rep.Stats.Line())
	}
	if rep.Stats.DupMismatches != 0 {
		t.Fatalf("duplicate deliveries disagreed: %s", rep.Stats.Line())
	}
	if got := rep.Render(); got != want {
		t.Fatalf("chaos report diverges from single-node baseline:\n--- chaos\n%s--- baseline\n%s", got, want)
	}
	var shed uint64
	for _, s := range []*serve.Server{s0, s1, s2} {
		st := s.Stats()
		shed += st.ShedQueue + st.ShedBreaker
	}
	t.Logf("%s fleet_shed=%d drops=%d flips=%d", rep.Stats.Line(), shed, min(chaos.drops.Load(), 4), min(chaos.flips.Load(), 3))
	if shed == 0 {
		t.Fatal("no worker shed a claim: the over-advertised slots put no pressure on the 1-deep queues")
	}
}

// TestCampaignResumeAfterCoordinatorKill: a coordinator that dies
// mid-campaign — journal fsync'd through its last completion, final
// line torn — resumes re-simulating nothing it finished: every restored
// job settles as a cache hit, dispatches cover only the remainder, and
// the final report is byte-identical to an uninterrupted run.
func TestCampaignResumeAfterCoordinatorKill(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")
	cacheDir := filepath.Join(dir, "cache")
	spec := npbSpec(8)
	want := baselineReport(t, "resume", spec)

	_, ts := startWorker(t, serve.Config{MaxInflight: 4, QueueDepth: 16}, jobRunner)
	worker := func() []WorkerClient { return []WorkerClient{NewHTTPWorker("w", ts.URL)} }

	// First life: the coordinator only ever sees half the campaign, then
	// "dies" — with a torn half-appended line, as a kill mid-write leaves.
	cfg := chaosConfig("resume")
	cfg.JournalPath, cfg.CacheDir = journal, cacheDir
	half := Spec{Jobs: spec.Jobs[:4]}
	rep1 := runCampaign(t, cfg, worker(), half)
	if rep1.Stats.Failed != 0 || rep1.Stats.Completed != 4 {
		t.Fatalf("first life: %s", rep1.Stats.Line())
	}
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"fnv1a":"0x12345","record":{"key":"torn-mid`)
	f.Close()

	// Second life: full spec, same journal and cache. The 4 completed
	// jobs must come back as cache hits — zero re-dispatches for them.
	rep2 := runCampaign(t, cfg, worker(), spec)
	if rep2.Stats.Failed != 0 || rep2.Stats.Completed != 8 {
		t.Fatalf("resumed life: %s", rep2.Stats.Line())
	}
	if rep2.Stats.Restored != 4 {
		t.Fatalf("restored %d journal entries, want 4", rep2.Stats.Restored)
	}
	if rep2.Stats.CacheHits != 4 {
		t.Fatalf("cache hits %d, want exactly the 4 completed shards", rep2.Stats.CacheHits)
	}
	if rep2.Stats.Dispatched != 4 {
		t.Fatalf("dispatched %d, want only the 4 unfinished shards", rep2.Stats.Dispatched)
	}
	if got := rep2.Render(); got != want {
		t.Fatalf("resumed report diverges from uninterrupted run:\n--- resumed\n%s--- baseline\n%s", got, want)
	}

	// Third life: nothing left to do. Everything is a cache hit; the
	// fabric dispatches zero jobs.
	rep3 := runCampaign(t, cfg, worker(), spec)
	if rep3.Stats.Dispatched != 0 || rep3.Stats.CacheHits != 8 {
		t.Fatalf("fully-resumed campaign still dispatched: %s", rep3.Stats.Line())
	}
	if rep3.Render() != want {
		t.Fatal("fully-resumed report diverges")
	}
}
