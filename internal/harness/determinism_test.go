package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"looppoint/internal/core"
	"looppoint/internal/omp"
	"looppoint/internal/timing"
)

// TestReportsDeterministicAcrossParallelism pins the central guarantee
// of the parallel evaluation engine: the same seed produces byte-
// identical rendered reports and an identical extrapolated prediction
// at every worker-pool width — width 1 being the serial phase order,
// every wider one overlapping each report's full run with its analysis
// and region sweep — and at width 2 on a single P. Host-time-derived
// metrics (actual speedups) are excluded by construction — Fig5a and
// Fig9 render only model-derived numbers.
func TestReportsDeterministicAcrossParallelism(t *testing.T) {
	type outcome struct {
		fig5a   string
		fig9    string
		pred    core.Prediction
		full    timing.Stats
		errs    [6]float64
		regions []timing.Stats
	}
	run := func(j int) outcome {
		opts := smokeOpts()
		opts.Parallelism = j
		e := NewEvaluator(opts)
		f5, err := e.Fig5a()
		if err != nil {
			t.Fatalf("j=%d: Fig5a: %v", j, err)
		}
		f9, err := e.Fig9()
		if err != nil {
			t.Fatalf("j=%d: Fig9: %v", j, err)
		}
		rep, err := e.Report(context.Background(), ReportKey{
			App: "603.bwaves_s.1", Policy: omp.Active, Input: e.Opts.trainInput(),
			Threads: e.Opts.Threads, Full: true,
		})
		if err != nil {
			t.Fatalf("j=%d: Report: %v", j, err)
		}
		out := outcome{fig5a: f5.Render(), fig9: f9.Render(), pred: rep.Predicted, full: *rep.Full,
			errs: [6]float64{rep.RuntimeErrPct, rep.CyclesErrPct, rep.BranchMPKIDiff,
				rep.L1DMPKIDiff, rep.L2MPKIDiff, rep.L3MPKIDiff}}
		for _, r := range rep.Regions {
			out.regions = append(out.regions, *r.Stats)
		}
		return out
	}

	base := run(1)
	check := func(label string, got outcome) {
		if got.fig5a != base.fig5a {
			t.Errorf("Fig5a render differs between j=1 and %s:\n--- j=1\n%s\n--- %s\n%s",
				label, base.fig5a, label, got.fig5a)
		}
		if got.fig9 != base.fig9 {
			t.Errorf("Fig9 render differs between j=1 and %s", label)
		}
		if got.pred != base.pred {
			t.Errorf("prediction differs between j=1 and %s:\nj=1: %+v\n%s: %+v",
				label, base.pred, label, got.pred)
		}
		if !reflect.DeepEqual(got.full, base.full) || got.errs != base.errs {
			t.Errorf("full run or error fields differ between j=1 and %s:\nj=1: %+v %v\n%s: %+v %v",
				label, base.full, base.errs, label, got.full, got.errs)
		}
		if !reflect.DeepEqual(got.regions, base.regions) {
			t.Errorf("region statistics differ between j=1 and %s", label)
		}
	}
	for _, j := range []int{2, 4, 8} {
		check(fmt.Sprintf("j=%d", j), run(j))
	}
	prev := runtime.GOMAXPROCS(1)
	onOneP := run(2)
	runtime.GOMAXPROCS(prev)
	check("j=2 under GOMAXPROCS(1)", onOneP)
}

// TestReportSingleflightNoStampede fires many concurrent Report calls
// for one key and requires exactly one underlying evaluation: the
// singleflight layer must collapse the stampede, and every caller must
// receive the same cached report.
func TestReportSingleflightNoStampede(t *testing.T) {
	opts := smokeOpts()
	opts.Parallelism = 8
	e := NewEvaluator(opts)
	key := ReportKey{
		App: "644.nab_s.1", Policy: omp.Passive, Input: e.Opts.trainInput(),
		Threads: e.Opts.Threads, Full: true,
	}

	const callers = 16
	reps := make([]*core.Report, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			reps[i], errs[i] = e.Report(context.Background(), key)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if reps[i] != reps[0] {
			t.Errorf("caller %d received a different report instance", i)
		}
	}
	if n := e.Evaluations(); n != 1 {
		t.Errorf("evaluations = %d, want 1 (stampede not collapsed)", n)
	}
	// A later call must hit the cache without re-evaluating.
	if _, err := e.Report(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if n := e.Evaluations(); n != 1 {
		t.Errorf("evaluations after cached call = %d, want 1", n)
	}
}

// TestReportCancelledFailsFast: a cancelled context fails the
// evaluation before any work (or storing) happens, and the failure is
// not cached — a later call with a live context evaluates normally.
func TestReportCancelledFailsFast(t *testing.T) {
	e := smokeEvaluator()
	k := ReportKey{App: "644.nab_s.1", Policy: omp.Passive, Input: e.Opts.trainInput(), Threads: e.Opts.Threads}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Report(ctx, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("Report err = %v, want context.Canceled", err)
	}
	if n := e.Evaluations(); n != 0 {
		t.Fatalf("%d evaluations ran under a cancelled context, want 0", n)
	}
	if _, _, err := e.AnalyzeOnly(ctx, "644.nab_s.1", omp.Passive, e.Opts.trainInput(), e.Opts.Threads); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeOnly err = %v, want context.Canceled", err)
	}
	rep, err := e.Report(context.Background(), k)
	if err != nil {
		t.Fatalf("Report after cancellation was sticky: %v", err)
	}
	if rep == nil || e.Evaluations() != 1 {
		t.Fatalf("live-context evaluation did not run (evals=%d)", e.Evaluations())
	}
}

// TestReportJoinerOutlivesLeaderCancel: a caller that joins another
// caller's in-flight evaluation of the same key is not answered with that
// caller's cancellation. A leads the key's flight with a compute that
// holds it until A's context ends and then fails with that cancellation,
// as an evaluation cut short does; B joins it with a live context. A is
// then cancelled, and B — failures are not cached — leads a fresh
// evaluation and gets its report: two evaluations in all.
func TestReportJoinerOutlivesLeaderCancel(t *testing.T) {
	e := smokeEvaluator()
	k := ReportKey{App: "644.nab_s.1", Policy: omp.Passive, Input: e.Opts.trainInput(), Threads: e.Opts.Threads}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	held := make(chan struct{})
	errA := make(chan error, 1)
	evalsA := 0
	go func() {
		_, err := e.reports.do(ctxA, fmt.Sprintf("%+v", k), func() (*core.Report, error) {
			evalsA++
			close(held) // A now leads the flight, held until it is cancelled
			<-ctxA.Done()
			return nil, ctxA.Err()
		})
		errA <- err
	}()
	<-held
	type result struct {
		rep *core.Report
		err error
	}
	resB := make(chan result, 1)
	go func() {
		rep, err := e.Report(context.Background(), k)
		resB <- result{rep, err}
	}()
	time.Sleep(50 * time.Millisecond) // B attaches to A's flight while A holds it
	cancelA()

	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("A: err = %v, want context.Canceled", err)
	}
	b := <-resB
	if b.err != nil || b.rep == nil {
		t.Fatalf("B inherited A's cancellation: %v", b.err)
	}
	if n := evalsA + int(e.Evaluations()); n != 2 {
		t.Fatalf("evaluations = %d, want 2 (A's cancelled one, B's fresh one)", n)
	}
}
