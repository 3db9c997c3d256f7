// Command lpcoord is the campaign coordinator: it shards one campaign —
// a set of sampling jobs, regions × experiments — across a fleet of
// lpserved workers and drives it to completion through worker crashes,
// hangs, overload storms, and corrupt responses (DESIGN.md §14).
//
// Jobs are content-addressed; dispatch is lease-based with seeded
// full-jitter retry backoff and work stealing; completed results land in
// a checksummed content-addressed cache and an fsync'd journal, so a
// killed coordinator resumes (-resume) without re-simulating anything it
// finished.
//
//	lpcoord -workers http://host1:8347,http://host2:8347 \
//	        -apps npb-cg,npb-ft -class analyze -input test -threads 4
//	lpcoord -workers ... -campaign spec.json -out report.txt
//	lpcoord -workers ... -campaign spec.json \
//	        -resume campaign.jsonl -cache cachedir    # survives kill -9
//
// The report (stdout or -out) is deterministic: byte-identical across
// fleet shapes, steal schedules, retries, and resumes. The stats line on
// stderr carries the operational story (dispatches, steals, cache hits).
// Exit status: 0 when every job completed, 1 on failed jobs or a bad
// invocation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"looppoint/internal/campaign"
	"looppoint/internal/serve"
)

func main() {
	var (
		workersFlag = flag.String("workers", "", "comma-separated worker base URLs (e.g. http://127.0.0.1:8347,http://...)")
		specPath    = flag.String("campaign", "", `campaign spec file: {"jobs":[{"class":"analyze","app":"npb-cg",...},...]} (empty: build from -apps)`)
		apps        = flag.String("apps", "", "comma-separated workload names to build a campaign from (ignored with -campaign)")
		class       = flag.String("class", serve.ClassAnalyze, "job class for -apps campaigns: "+strings.Join(serve.JobClasses, " or "))
		input       = flag.String("input", "", "input class for -apps campaigns (empty = train)")
		threads     = flag.Int("threads", 0, "thread count for -apps campaigns (0 = the workload's default)")
		policy      = flag.String("policy", "", "OMP wait policy for -apps campaigns: passive (default) or active")
		core        = flag.String("core", "", "core model for -apps campaigns: ooo (default) or inorder")
		full        = flag.Bool("full", false, "also run whole-program simulation (report class)")

		tag     = flag.String("tag", "default", "campaign tag: distinct tags never share keys, so never each other's cache or journal entries")
		out     = flag.String("out", "", "write the report here (empty: stdout)")
		resume  = flag.String("resume", "", "campaign journal path: completions are fsync'd here and restored on restart (empty disables)")
		cache   = flag.String("cache", "", "content-addressed result cache directory (empty: in-memory only)")
		lease   = flag.Duration("lease", campaign.DefaultLease, "dispatch lease; an expired lease re-enqueues the job on another worker")
		reqTO   = flag.Duration("request-timeout", 0, "claim HTTP timeout (0 = 2×lease)")
		maxAtt  = flag.Int("max-attempts", 0, "dispatch attempts per job before it fails (0 = max(8, 4×workers))")
		dup     = flag.Int("dup", campaign.DefaultMaxDuplicates, "max concurrent dispatches per job (original + steals)")
		backoff = flag.Duration("backoff", campaign.DefaultBackoff, "base retry backoff (full-jittered capped doubling)")
		maxBO   = flag.Duration("max-backoff", campaign.DefaultMaxBackoff, "retry backoff cap")
		seed    = flag.Uint64("seed", 1, "jitter seed: one seed reproduces the campaign's whole retry schedule")

		brFailures = flag.Int("breaker-failures", serve.DefaultFailureThreshold, "consecutive dispatch failures that trip a worker's circuit breaker")
		brOpen     = flag.Duration("breaker-open", serve.DefaultOpenFor, "how long a tripped worker breaker holds open before probing")
		brProbes   = flag.Int("breaker-probes", serve.DefaultHalfOpenProbes, "half-open probe slots per worker breaker")
		probeIvl   = flag.Duration("probe-interval", campaign.DefaultProbeInterval, "/readyz probe period; each probe re-learns a worker's slots, the claims kept in flight to it")

		timeout = flag.Duration("timeout", 0, "overall campaign deadline (0 = none)")
		verbose = flag.Bool("v", false, "log dispatch/retry/steal progress to stderr")
	)
	flag.Parse()

	var clients []campaign.WorkerClient
	var workerURLs []string
	for _, u := range strings.Split(*workersFlag, ",") {
		if u = strings.TrimSpace(u); u != "" {
			clients = append(clients, campaign.NewHTTPWorker("", u))
			workerURLs = append(workerURLs, strings.TrimRight(u, "/"))
		}
	}
	if len(clients) == 0 {
		fatalf("no workers: pass -workers with at least one lpserved base URL")
	}

	spec, err := buildSpec(*specPath, *apps, *class, *input, *threads, *policy, *core, *full)
	if err != nil {
		fatalf("%v", err)
	}

	cfg := campaign.Config{
		Tag: *tag, Lease: *lease, RequestTimeout: *reqTO,
		MaxAttempts: *maxAtt, MaxDuplicates: *dup,
		Backoff: *backoff, MaxBackoff: *maxBO, Seed: *seed,
		Breaker: serve.BreakerOpts{
			FailureThreshold: *brFailures, OpenFor: *brOpen, HalfOpenProbes: *brProbes,
		},
		ProbeInterval: *probeIvl,
		CacheDir:      *cache,
		JournalPath:   *resume,
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lpcoord: "+format+"\n", args...)
		}
	}

	coord, err := campaign.New(cfg, clients)
	if err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	fmt.Fprintf(os.Stderr, "lpcoord: campaign %q: %d jobs across %d workers (slots %s)\n",
		*tag, len(spec.Jobs), len(clients), fleetSlots(ctx, clients, *probeIvl/2))
	rep, err := coord.Run(ctx, spec)
	if rep != nil {
		fmt.Fprintf(os.Stderr, "lpcoord: %s%s\n", rep.Stats.Line(), fleetProgressLine(workerURLs))
	}
	if err != nil {
		fatalf("campaign %q: %v", *tag, err)
	}

	rendered := rep.Render()
	if *out == "" {
		fmt.Print(rendered)
	} else if werr := os.WriteFile(*out, []byte(rendered), 0o644); werr != nil {
		fatalf("write report: %v", werr)
	}
	if rep.Stats.Failed > 0 {
		fatalf("%d of %d jobs failed", rep.Stats.Failed, rep.Stats.Jobs)
	}
}

// buildSpec loads the campaign from a spec file, or builds one from the
// -apps cross-product flags.
func buildSpec(path, apps, class, input string, threads int, policy, core string, full bool) (campaign.Spec, error) {
	var spec campaign.Spec
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return spec, fmt.Errorf("read campaign spec: %w", err)
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return spec, fmt.Errorf("parse campaign spec %s: %w", path, err)
		}
	} else {
		for _, app := range strings.Split(apps, ",") {
			if app = strings.TrimSpace(app); app != "" {
				spec.Jobs = append(spec.Jobs, serve.JobRequest{
					Class: class, App: app, Input: input, Threads: threads,
					Policy: policy, Core: core, Full: full,
				})
			}
		}
	}
	if len(spec.Jobs) == 0 {
		return spec, fmt.Errorf("empty campaign: pass -campaign or -apps")
	}
	return spec, nil
}

// fleetSlots runs one registry probe pass — the one the coordinator opens
// its campaign with — and renders the slots each worker advertises, the
// claims the coordinator keeps in flight to it, as "2+2" in -workers
// order; a worker that is not ready shows 0.
func fleetSlots(ctx context.Context, clients []campaign.WorkerClient, timeout time.Duration) string {
	reg := campaign.NewRegistry(clients, serve.BreakerOpts{})
	reg.Probe(ctx, timeout)
	var slots []string
	for _, w := range reg.Workers() {
		slots = append(slots, strconv.Itoa(w.Slots()))
	}
	return strings.Join(slots, "+")
}

// fleetProgressLine polls every worker's GET /v1/stats and folds the
// durable-progress counters into one " progress_saves=… recoveries=…"
// suffix for the campaign stats line, so an operator sees how much work
// crash recovery saved without visiting each worker. Best-effort: dead
// workers (the chaos drill kills some) are skipped and counted.
func fleetProgressLine(workerURLs []string) string {
	hc := &http.Client{Timeout: 2 * time.Second}
	var saves, fails, recov, steps, falls uint64
	unreachable := 0
	for _, base := range workerURLs {
		resp, err := hc.Get(base + "/v1/stats")
		if err != nil {
			unreachable++
			continue
		}
		var st serve.Stats
		derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusOK {
			unreachable++
			continue
		}
		saves += st.ProgressSaves
		fails += st.ProgressSaveFailures
		recov += st.Recoveries
		steps += st.RecoveryStepsSaved
		falls += st.LadderFalls
	}
	return fmt.Sprintf(" progress_saves=%d progress_save_failures=%d recoveries=%d recovery_steps_saved=%d ladder_falls=%d workers_unreachable=%d",
		saves, fails, recov, steps, falls, unreachable)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpcoord: "+format+"\n", args...)
	os.Exit(1)
}
