package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"looppoint"
	"looppoint/internal/campaign"
	"looppoint/internal/harness"
	"looppoint/internal/serve"
)

// fleet-campaign: the only workload through serve, campaign, harness and
// the artifact journals. Both cores are busy, so cpu_s_per_job predicts
// jobs_per_s and a claim waits about one run time in the worker's queue.

var fleetCampaign = workload{
	name: "fleet-campaign",
	why: "cold campaign of every app x threads {2,4} x wait policy over /v1/claim on a fresh 2-worker fleet, then a resume " +
		"dispatching nothing: the only path through serve, campaign, harness and the journals",
	setup: setupFleet,
}

type fleetInst struct {
	e      *env
	jobs   []serve.JobRequest
	dir    string
	rounds int
}

func fleetSpec(j serve.JobRequest) string {
	return fmt.Sprintf("%s/%s/t%d/%s", j.App, j.Input, j.Threads, j.Policy)
}

func setupFleet(e *env, t *trace) (instance, error) {
	apps := looppoint.Workloads()
	threads := []int{2, 4}
	policies := []string{"passive", "active"}
	if e.quick {
		apps, threads, policies = apps[:4], threads[:1], policies[:1]
	}
	in := &fleetInst{e: e}
	for _, app := range apps {
		for _, th := range threads {
			for _, pol := range policies {
				in.jobs = append(in.jobs, serve.JobRequest{Class: serve.ClassReport, App: app,
					Input: "test", Threads: th, Policy: pol, Full: true})
			}
		}
	}
	e.rng().Shuffle(len(in.jobs), func(i, j int) { in.jobs[i], in.jobs[j] = in.jobs[j], in.jobs[i] })
	var err error
	if in.dir, err = os.MkdirTemp(e.scratch, "fleet-"); err != nil {
		return nil, err
	}
	// Four of the specs also run through the library, so the first round
	// checks the fleet's results against looppoint.Evaluate on the same
	// spec (the digests share keys with the fleet's jobs).
	for _, j := range in.jobs[:4] {
		pol := looppoint.Passive
		if j.Policy == "active" {
			pol = looppoint.Active
		}
		w, err := looppoint.BuildWorkload(j.App, looppoint.WorkloadOptions{Input: j.Input, Threads: j.Threads, Policy: pol})
		if err != nil {
			return nil, err
		}
		cfg := looppoint.DefaultConfig()
		cfg.Seed = e.cfgSeed()
		rep, err := looppoint.Evaluate(w, cfg, looppoint.EvalOptions{CompareFull: true})
		if err != nil {
			return nil, err
		}
		if why := e.check.check("fleet-campaign/"+fleetSpec(j), reportFleetDigest(rep)); why != "" {
			return nil, fmt.Errorf("library run: %s", why)
		}
	}
	return in, nil
}

func (in *fleetInst) close() { os.RemoveAll(in.dir) }

// timedWorker is the campaign's view of a worker with a stopwatch on
// every claim: the round trip is the job latency a campaign sees.
type timedWorker struct {
	campaign.WorkerClient
	mu     sync.Mutex
	claims []claimSample
}

type claimSample struct {
	ms, queueMS, runMS float64
	ok                 bool
}

func (w *timedWorker) Claim(ctx context.Context, key string, leaseMS int64, job serve.JobRequest) (*campaign.ClaimOutcome, error) {
	t0 := time.Now()
	out, err := w.WorkerClient.Claim(ctx, key, leaseMS, job)
	s := claimSample{ms: ms(time.Since(t0))}
	if err == nil && out.Status == http.StatusOK && out.Result != nil {
		s.ok = true
		s.queueMS, s.runMS = float64(out.Result.QueueWaitMS), float64(out.Result.RunMS)
	}
	w.mu.Lock()
	w.claims = append(w.claims, s)
	w.mu.Unlock()
	return out, err
}

// fleetWorker is one in-process lpserved: evaluator, server, listener.
type fleetWorker struct {
	eval   *harness.Evaluator
	srv    *serve.Server
	ts     *httptest.Server
	client *timedWorker
}

func (in *fleetInst) boot() []*fleetWorker {
	ws := make([]*fleetWorker, 2)
	for i := range ws {
		ev := harness.NewEvaluator(harness.Options{Parallelism: 1, Seed: in.e.cfgSeed()})
		srv := serve.New(serve.Config{MaxInflight: 1}, serve.EvaluatorRunner(ev))
		srv.Start()
		ts := httptest.NewServer(srv.Handler())
		ws[i] = &fleetWorker{eval: ev, srv: srv, ts: ts,
			client: &timedWorker{WorkerClient: campaign.NewHTTPWorker(fmt.Sprintf("w%d", i), ts.URL)}}
	}
	return ws
}

func (w *fleetWorker) stop() {
	w.ts.Close()
	w.srv.Drain()
	w.eval.Close()
}

// stats reads the worker's counters the way an operator would.
func (w *fleetWorker) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(w.ts.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// round boots a fresh fleet, runs the campaign cold, re-runs it under
// the same tag (which must dispatch nothing), and tears the fleet down.
func (in *fleetInst) round(t *trace) roundResult {
	var r roundResult
	in.rounds++
	tag := fmt.Sprintf("lpbench-%d-%d", in.e.seed, in.rounds)
	dir := filepath.Join(in.dir, tag)
	cfg := campaign.Config{Tag: tag, Seed: in.e.cfgSeed(),
		CacheDir: filepath.Join(dir, "cache"), JournalPath: filepath.Join(dir, "journal.jsonl")}
	spec := campaign.Spec{Jobs: in.jobs}
	n := len(in.jobs)
	invariant := func(format string, args ...any) {
		r.fails = append(r.fails, "fleet-campaign: "+fmt.Sprintf(format, args...))
	}

	t0 := time.Now()
	ws := in.boot()
	clients := make([]campaign.WorkerClient, len(ws))
	for i, w := range ws {
		clients[i] = w.client
	}
	bootMS := ms(time.Since(t0))
	defer func() {
		for _, w := range ws {
			w.stop()
		}
		os.RemoveAll(dir)
	}()

	run := func() (*campaign.Report, error) {
		co, err := campaign.New(cfg, clients)
		if err != nil {
			return nil, err
		}
		return co.Run(context.Background(), spec)
	}
	c0 := time.Now()
	rep, err := run()
	campaignMS := ms(time.Since(c0))
	if err != nil {
		invariant("campaign: %v", err)
		return r
	}
	var journalBytes int64
	if fi, err := os.Stat(cfg.JournalPath); err == nil {
		journalBytes = fi.Size()
	}
	r0 := time.Now()
	again, err := run()
	resumeMS := ms(time.Since(r0))
	switch {
	case err != nil:
		invariant("resume: %v", err)
	case again.Stats.Dispatched != 0 || again.Stats.CacheHits != uint64(n):
		invariant("resume dispatched=%d cache_hits=%d, want 0 and %d", again.Stats.Dispatched, again.Stats.CacheHits, n)
	case again.Render() != rep.Render():
		invariant("resumed report differs from the first")
	}
	if rep.Stats.Failed > 0 || rep.Stats.DupMismatches > 0 || rep.Stats.Completed != n {
		invariant("completed=%d failed=%d dup_mismatches=%d of %d jobs",
			rep.Stats.Completed, rep.Stats.Failed, rep.Stats.DupMismatches, n)
	}

	// One job per campaign result; its latency is the claim that won it.
	var claims []claimSample
	perWorker := map[string]int{}
	for _, w := range ws {
		claims = append(claims, w.client.claims...)
	}
	ok := claims[:0:0]
	for _, c := range claims {
		if c.ok {
			ok = append(ok, c)
		}
	}
	for i, res := range rep.Results {
		s := jobSample{Spec: fleetSpec(res.Job)}
		switch {
		case res.Res == nil:
			s.Fail = "fleet-campaign/" + s.Spec + ": no result"
		default:
			jr := res.Res
			s.Fail = in.e.check.check("fleet-campaign/"+s.Spec,
				fleetDigest(jr.Regions, jr.Points, jr.PredictedSeconds, jr.PredictedCycles, jr.RuntimeErrPct))
			perWorker[res.Worker]++
		}
		if i < len(ok) {
			s.MS = ok[i].ms
		}
		r.jobs = append(r.jobs, s)
	}
	if t == nil {
		return r
	}

	t.add("", "serve.boot_ms", bootMS)
	t.add("", "campaign.resume_ms", resumeMS)
	t.add("", "campaign.dispatched", float64(rep.Stats.Dispatched))
	t.add("", "campaign.steals", float64(rep.Stats.Steals))
	t.add("", "campaign.cache_stores", float64(rep.Stats.CacheStores))
	t.add("", "artifact.journal_bytes", float64(journalBytes))
	var runSum float64
	for _, c := range ok {
		t.pool("claim_ms", c.ms)
		t.pool("queue_wait_ms", c.queueMS)
		t.pool("run_ms", c.runMS)
		t.pool("overhead_ms", c.ms-c.queueMS-c.runMS)
		runSum += c.runMS
	}
	// The share of the campaign's two-core wall-clock that job run time
	// accounts for: what is left is dispatch, queueing gaps and the tail.
	t.pool("coverage", runSum/(2*campaignMS))
	var claimsN, shed, evals float64
	for _, w := range ws {
		if st, err := w.stats(); err == nil {
			claimsN += float64(st.Claims)
			shed += float64(st.ShedQueue + st.ShedBreaker + st.ShedDrain)
		}
		evals += float64(w.eval.Evaluations())
	}
	t.add("", "serve.claims", claimsN)
	t.add("", "serve.shed", shed)
	t.add("", "harness.evaluations", evals)
	if claimsN > 0 {
		t.add("", "harness.memo_hit_ratio", 1-evals/claimsN)
	}
	lo, hi := n, 0
	for _, w := range ws {
		c := perWorker[w.client.Name()]
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	t.add("", "campaign.worker_imbalance", float64(hi-lo)/float64(n))
	return r
}
