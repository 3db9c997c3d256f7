package campaign

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"looppoint/internal/artifact"
	"looppoint/internal/faults"
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

// baselineReport runs the campaign on one healthy worker with no faults
// armed — the reference the chaos run must reproduce byte-for-byte.
func baselineReport(t *testing.T, tag string, spec Spec) string {
	t.Helper()
	defer faults.Enable(nil)()
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
// no-fault run. Injection is a pure function of FAULTS_SEED, so each CI
// matrix seed replays a distinct, reproducible failure pattern.
func TestCampaignChaosFaultDrill(t *testing.T) {
	spec := npbSpec(8)
	for i := range spec.Jobs {
		if i%3 == 0 {
			spec.Jobs[i].Class = serve.ClassReport
		}
	}
	want := baselineReport(t, "chaos", spec)

	seed := faults.SeedFromEnv(1)
	restore := faults.Enable(faults.NewPlan(seed,
		faults.Rule{Site: "campaign.claim", Kind: faults.Transient, Rate: 5, Count: 4},
		faults.Rule{Site: "campaign.result", Kind: faults.Corrupt, Rate: 4, Count: 3},
	))
	defer restore()

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
		overAdvertised{NewHTTPWorker("w0", ts0.URL), 3},
		overAdvertised{NewHTTPWorker("w1", ts1.URL), 3},
		overAdvertised{NewHTTPWorker("w2", ts2.URL), 3},
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
	t.Logf("%s fleet_shed=%d", rep.Stats.Line(), shed)
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
