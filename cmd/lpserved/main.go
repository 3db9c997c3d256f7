// Command lpserved serves the sampling pipeline as a resilient daemon:
// profiling/clustering/simulation jobs arrive as HTTP/JSON, run on the
// shared memoizing evaluator, and are protected by the internal/serve
// stack — admission control with a bounded queue and 429 load shedding,
// per-class circuit breakers, per-request deadlines, and graceful
// SIGTERM drain. A job runs once; lpcoord retries a failed one on another
// worker.
//
//	lpserved -slice 2000                   # fast smoke configuration
//	lpserved -addr 127.0.0.1:0             # ephemeral port, printed at boot
//	curl localhost:8347/readyz
//	curl -d '{"class":"analyze","app":"npb-cg","input":"test"}' localhost:8347/v1/jobs
//
// Endpoints: GET /healthz (liveness), GET /readyz ({"ready":true,
// "slots":N} with N the -max-inflight jobs run at once, which lpcoord
// keeps in flight here; flips to 503 the moment drain starts), GET
// /v1/stats (the counters, breaker states and the durable-progress and
// recovery counters), POST /v1/jobs
// (synchronous; the response is the job's result or a typed outcome) and
// POST /v1/claim (the same submission under lpcoord's key and lease,
// answered in a checksummed envelope). On SIGTERM/SIGINT the daemon stops
// admitting, waits for in-flight work up to -drain-deadline, cancels
// whatever is left — each request still gets its own answer — and exits 0.
//
// Crash recovery: with -progress-dir set, each analysis's recording and
// block-event log and every finished region simulation are saved durably
// as jobs run. Shutdown is crash-only: after a SIGTERM or a SIGKILL alike,
// a restarted daemon keeps nothing but that directory, and the caller
// resubmits — a job stopped after its recording resumes without executing
// the program again (the saved log feeds its graph and profile), and
// re-simulates only the regions it had not finished.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"looppoint/internal/core"
	"looppoint/internal/harness"
	"looppoint/internal/serve"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:8347", "listen address (port 0 picks an ephemeral port, printed at boot)")

		maxInflight = flag.Int("max-inflight", 0, "maximum concurrently running jobs (0 = one per CPU)")
		queueDepth  = flag.Int("queue-depth", 0, "admitted-but-waiting job bound; beyond it requests are shed with 429 (0 = 2×max-inflight)")
		deadline    = flag.Duration("deadline", serve.DefaultDeadline, "per-request deadline when the client sets none")
		maxDeadline = flag.Duration("max-deadline", serve.DefaultMaxDeadline, "cap on client-requested deadlines")
		drainDL     = flag.Duration("drain-deadline", serve.DefaultDrainDeadline, "SIGTERM drain bound before unfinished jobs are cancelled")

		progressDir = flag.String("progress-dir", "", "durable progress directory: each analysis's recording and block log and every finished region simulation persist here, and a restarted daemon resumes from them instead of redoing the work (empty disables)")

		brFailures = flag.Int("breaker-failures", serve.DefaultFailureThreshold, "consecutive failures that trip a job class's circuit breaker")
		brOpen     = flag.Duration("breaker-open", serve.DefaultOpenFor, "how long a tripped breaker holds open before probing")
		brProbes   = flag.Int("breaker-probes", serve.DefaultHalfOpenProbes, "half-open probe slots (and successes required to close)")

		jobs    = flag.Int("j", 0, "worker-pool width inside each evaluation (0 = one worker per CPU)")
		slice   = flag.Uint64("slice", 0, "override the per-thread slice unit (0 = default)")
		resume  = flag.String("resume", "", "evaluator resume directory: completed evaluations persist here across restarts")
		verbose = flag.Bool("v", false, "log evaluator progress to stderr")
	)
	flag.Parse()

	progress := &core.ProgressStats{}
	opts := harness.Options{
		Parallelism: *jobs,
		SliceUnit:   *slice,
		Resume:      *resume,
		ProgressDir: *progressDir,
		Progress:    progress,
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	e := harness.NewEvaluator(opts)

	srv := serve.New(serve.Config{
		MaxInflight:     *maxInflight,
		QueueDepth:      *queueDepth,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DrainDeadline:   *drainDL,
		Breaker: serve.BreakerOpts{
			FailureThreshold: *brFailures,
			OpenFor:          *brOpen,
			HalfOpenProbes:   *brProbes,
		},
		Progress: progress,
		Log:      os.Stderr,
	}, serve.EvaluatorRunner(e))
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lpserved: %v\n", err)
		os.Exit(1)
	}
	// The smoke script (and any supervisor) parses this line for the
	// bound address, so -addr :0 is usable.
	fmt.Printf("lpserved: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "lpserved: %v received, draining\n", s)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "lpserved: serve failed: %v\n", err)
		os.Exit(1)
	}

	// Drain first — handlers of in-flight jobs must still be able to
	// write their responses — then close the listener and connections.
	ds := srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	hs.Shutdown(ctx)
	cancel()
	fmt.Printf("lpserved: drained clean=%v leaked_workers=%d\n", ds.Clean, ds.LeakedWorkers)
	os.Exit(0)
}
