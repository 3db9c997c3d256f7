// Package harness drives the experiments that regenerate every table and
// figure of the paper's evaluation (Section V). Each Fig*/Table*/
// ablation function returns a typed result with a Render method; the
// lpreport command and the repository's benchmarks are thin wrappers
// around these entry points.
//
// Experiments are expensive (each application evaluation records,
// profiles, clusters, simulates regions, and optionally simulates the
// full application), so the Evaluator memoizes per-application reports
// behind a singleflight layer — concurrent callers of the same key share
// one evaluation — and every experiment fans its applications out across
// a bounded worker pool (Options.Parallelism, the -j flag). Results are
// collected in application order, so rendered reports are byte-identical
// at every parallelism level; the Options.Quick flag restricts suites to
// representative subsets.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"looppoint/internal/artifact"
	"looppoint/internal/core"
	"looppoint/internal/faults"
	"looppoint/internal/omp"
	"looppoint/internal/pool"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Quick restricts suites to a representative subset so a full report
	// finishes in minutes on a laptop; the complete suites are used when
	// false.
	Quick bool
	// Threads is the SPEC thread count (paper: 8; 657.xz_s pins its own).
	Threads int
	// SliceUnit overrides the per-thread slice size (0 = default 100 K).
	SliceUnit uint64
	// Seed drives all randomized steps.
	Seed uint64
	// Parallelism bounds how many application evaluations run concurrently
	// and, within each, its detailed simulations in flight (regions plus
	// the full run, core.RunOpts.Width) — the -j flag. Zero means one
	// worker per CPU, 1 the serial phase order. Results are deterministic
	// and ordering-stable at every setting.
	Parallelism int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// InputOverride, when set, replaces every experiment's input class
	// (train, ref, C, D) with the given one — smoke-testing only; the
	// figures are defined on their paper inputs.
	InputOverride workloads.InputClass
	// Resume names a directory of completed evaluations (the resume
	// store). When set, an evaluation already stored under this run's
	// configuration is served instead of re-run, and every new one is
	// stored durably — a killed campaign restarts where it stopped. An
	// entry is keyed by the ReportKey plus every setting that changes its
	// numbers (slice, seed), so another configuration re-evaluates; a
	// corrupt entry is deleted and re-evaluated, and a directory that
	// cannot be created is logged and ignored.
	Resume string
	// ProgressDir, when set, makes every evaluation crash-only: the
	// analysis's recording and block log, and every completed region
	// simulation, are saved durably under this directory, and a restarted
	// evaluation of the same key resumes from them instead of executing
	// the program again (the -progress-dir flag; see
	// core.Config.ProgressDir).
	ProgressDir string
	// Progress, when non-nil, receives the durable-progress counters of
	// every evaluation (shared with the serving layer's /v1/stats).
	Progress *core.ProgressStats
	// Selector names the selection engine ("" = "simpoint"; one of
	// simpoint.SelectorNames) — the -selector flag.
	Selector string
	// SampleBudget caps the stratified engine's total region draws
	// (0 = the engine default of twice the cluster count).
	SampleBudget int
	// Confidence is the interval level for multi-draw engines
	// (0 = simpoint.DefaultConfidence).
	Confidence float64
}

// trainInput returns the SPEC accuracy-experiment input class.
func (o Options) trainInput() workloads.InputClass {
	if o.InputOverride != "" {
		return o.InputOverride
	}
	return workloads.InputTrain
}

// refInput returns the SPEC speedup-study input class.
func (o Options) refInput() workloads.InputClass {
	if o.InputOverride != "" {
		return o.InputOverride
	}
	return workloads.InputRef
}

// npbInput returns the NPB problem class.
func (o Options) npbInput() workloads.InputClass {
	if o.InputOverride != "" {
		return o.InputOverride
	}
	return workloads.ClassC
}

// npbLargeInput returns the larger NPB class used by Figure 1.
func (o Options) npbLargeInput() workloads.InputClass {
	if o.InputOverride != "" {
		return o.InputOverride
	}
	return workloads.ClassD
}

func (o Options) fill() Options {
	if o.Threads == 0 {
		o.Threads = 8
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Parallelism <= 0 {
		o.Parallelism = pool.DefaultWidth()
	}
	return o
}

func (o Options) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	if o.SliceUnit != 0 {
		cfg.SliceUnit = o.SliceUnit
	}
	// The clustering stage (projection + BIC sweep) shares the -j width;
	// selections are byte-identical at every setting.
	cfg.ClusterWorkers = o.Parallelism
	cfg.Selector = o.Selector
	cfg.SampleBudget = o.SampleBudget
	cfg.Confidence = o.Confidence
	cfg.ProgressDir = o.ProgressDir
	cfg.Progress = o.Progress
	return cfg
}

// SpecApps returns the SPEC CPU2017 workload names used by the run.
func (o Options) SpecApps() []string {
	if o.Quick {
		return []string{"603.bwaves_s.1", "638.imagick_s.1", "644.nab_s.1", "657.xz_s.2"}
	}
	var names []string
	for _, s := range workloads.SpecSuite() {
		names = append(names, s.Name)
	}
	return names
}

// NPBApps returns the NPB workload names used by the run.
func (o Options) NPBApps() []string {
	if o.Quick {
		return []string{"npb-cg", "npb-ep", "npb-is"}
	}
	var names []string
	for _, s := range workloads.NPBSuite() {
		names = append(names, s.Name)
	}
	return names
}

// Evaluator memoizes end-to-end application reports across experiments
// (Figures 5a, 7, and 8 share the same underlying runs, as in the paper).
// All entry points are safe for concurrent use: caches sit behind a
// singleflight layer, so two goroutines requesting the same key trigger
// exactly one evaluation and share its result.
type Evaluator struct {
	Opts Options

	reports    memo[*core.Report]
	apps       memo[*workloads.App]
	selections memo[*core.Selection]

	resume *artifact.Store[reportData] // nil without Options.Resume

	logMu sync.Mutex
	evals atomic.Int64
}

// memo is a keyed cache behind a singleflight: however many goroutines
// ask for a key, one of them computes it and the rest share the result.
// Successes are cached; failures are not, so a later call re-evaluates.
// A shared computation runs under the context of the caller that started
// it: when that context ends it, a caller whose own context is live does
// not inherit the failure but leads or joins a fresh computation.
// The zero value is ready to use.
type memo[V any] struct {
	mu     sync.Mutex
	vals   map[string]V
	flight pool.Flight[V]
}

func (m *memo[V]) lookup(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vals[key]
	return v, ok
}

func (m *memo[V]) do(ctx context.Context, key string, compute func() (V, error)) (V, error) {
	for {
		if v, ok := m.lookup(key); ok {
			return v, nil
		}
		v, err, shared := m.flight.Do(key, func() (V, error) {
			// Re-check under the flight: the previous holder of this key may
			// have stored its result between the lookup above and Do.
			if v, ok := m.lookup(key); ok {
				return v, nil
			}
			v, err := compute()
			if err != nil {
				var zero V
				return zero, err
			}
			m.mu.Lock()
			if m.vals == nil {
				m.vals = make(map[string]V)
			}
			m.vals[key] = v
			m.mu.Unlock()
			return v, nil
		})
		if shared && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue // the leader's context ended the shared computation, not ours
		}
		return v, err
	}
}

// NewEvaluator creates an evaluator. When Options.Resume names a
// directory, evaluations are served from and stored into it.
func NewEvaluator(opts Options) *Evaluator {
	e := &Evaluator{Opts: opts.fill()}
	if opts.Resume != "" {
		st, err := artifact.NewStore[reportData](opts.Resume, nil)
		if err != nil {
			e.logf("resume: cannot open %s: %v (resume disabled)", opts.Resume, err)
		} else {
			e.resume = st
		}
	}
	return e
}

// Restored returns how many evaluations were served from the resume
// store.
func (e *Evaluator) Restored() int {
	if e.resume == nil {
		return 0
	}
	hits, _, _, _ := e.resume.Counters()
	return int(hits)
}

// Close is a no-op: the resume store holds no open file, and every entry
// is durable by the time Report returns.
func (e *Evaluator) Close() error { return nil }

// Evaluations returns how many end-to-end report evaluations have
// actually executed (cache and singleflight hits do not count) — the
// observable the stampede regression test pins down.
func (e *Evaluator) Evaluations() int64 { return e.evals.Load() }

// logf emits one progress line; serialized so concurrent evaluations do
// not interleave partial lines on the shared writer.
func (e *Evaluator) logf(format string, args ...interface{}) {
	if e.Opts.Log == nil {
		return
	}
	e.logMu.Lock()
	defer e.logMu.Unlock()
	fmt.Fprintf(e.Opts.Log, format+"\n", args...)
}

// forEach runs fn over items on the evaluator's worker pool and returns
// the per-item results in input order regardless of completion order —
// the invariant that keeps reports byte-identical at every -j.
func forEach[T, R any](e *Evaluator, items []T, fn func(T) (R, error)) ([]R, error) {
	return pool.Map(context.Background(), e.Opts.Parallelism, len(items),
		func(_ context.Context, i int) (R, error) { return fn(items[i]) })
}

// BuildApp constructs (and caches) a workload instance. Concurrent
// requests for the same instance share one build.
func (e *Evaluator) BuildApp(name string, policy omp.WaitPolicy, input workloads.InputClass, threads int) (*workloads.App, error) {
	key := fmt.Sprintf("%s/%v/%s/%d", name, policy, input, threads)
	// A build watches no context, so none of its failures is a cancellation.
	return e.apps.do(context.Background(), key, func() (*workloads.App, error) {
		spec, ok := workloads.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		return spec.Build(workloads.BuildParams{Threads: threads, Input: input, Policy: policy})
	})
}

// ReportKey identifies one memoized evaluation.
type ReportKey struct {
	App     string
	Policy  omp.WaitPolicy
	Input   workloads.InputClass
	Threads int
	Core    timing.CoreKind
	Full    bool
	// Selector overrides the evaluator's selection engine for this
	// evaluation ("" = Options.Selector) — the engine-comparison
	// experiment evaluates one application under several engines.
	Selector string
}

// Report runs (or returns the cached) end-to-end LoopPoint evaluation.
// Concurrent callers of the same key block on one in-flight evaluation
// instead of duplicating the record/profile/cluster/simulate run.
// Cancellation or deadline expiry of ctx stops the evaluation at the
// next phase or region boundary with ctx's error instead of finishing
// the remaining work — the contract the serving layer's per-request
// deadlines rely on. Cache and resume-store hits ignore ctx.
//
// Concurrent callers of the same key share one evaluation, run under the
// context of the caller that started it. If that context ends the
// evaluation, the callers whose own contexts are still live are not
// answered with its cancellation: failures are not cached, so each of
// them leads or joins a fresh evaluation.
func (e *Evaluator) Report(ctx context.Context, k ReportKey) (*core.Report, error) {
	key := fmt.Sprintf("%+v", k)
	return e.reports.do(ctx, key, func() (*core.Report, error) {
		var rkey string
		if e.resume != nil {
			rkey = resumeKey(e.Opts, k)
			if d, ok := e.resume.Get(rkey); ok {
				e.logf("restored %s (%v, %s) from %s", k.App, k.Policy, k.Input, e.Opts.Resume)
				return d.report(), nil
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Injection site "harness.report" lets the fault suite kill an
		// experiment campaign between evaluations and exercise the
		// resume store.
		if err := faults.Check("harness.report"); err != nil {
			return nil, fmt.Errorf("harness: %s: %w", k.App, err)
		}
		e.evals.Add(1)
		app, err := e.BuildApp(k.App, k.Policy, k.Input, k.Threads)
		if err != nil {
			return nil, err
		}
		simCfg := timing.Gainestown(app.Prog.NumThreads())
		if k.Core == timing.InOrder {
			simCfg = timing.InOrderConfig(app.Prog.NumThreads())
		}
		e.logf("evaluating %s (%v, %s, %d threads, %v core, full=%v)",
			k.App, k.Policy, k.Input, app.Prog.NumThreads(), k.Core, k.Full)
		start := time.Now()
		cfg := e.Opts.config()
		if k.Selector != "" {
			cfg.Selector = k.Selector
		}
		rep, err := core.Run(ctx, app.Prog, cfg, simCfg, core.RunOpts{
			SimulateFull: k.Full, Width: e.Opts.Parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", k.App, err)
		}
		e.logf("evaluated %s (%v, %s) in %v",
			k.App, k.Policy, k.Input, time.Since(start).Round(time.Millisecond))
		if e.resume != nil {
			d := newReportData(rep)
			if err := e.resume.Put(rkey, &d); err != nil {
				e.logf("resume: storing %s: %v", k.App, err)
			}
		}
		return rep, nil
	})
}

// AnalyzeOnly runs analysis and selection without any timing simulation
// (used for the ref-input speedup studies, where full simulation is the
// very thing being avoided). Concurrent callers share one analysis.
// Analysis is one CPU-bound phase, so cancellation of ctx is honored at
// phase boundaries (a shared analysis ended by another caller's context
// is re-run for live callers, as in Report).
func (e *Evaluator) AnalyzeOnly(ctx context.Context, name string, policy omp.WaitPolicy, input workloads.InputClass, threads int) (*core.Selection, *workloads.App, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	app, err := e.BuildApp(name, policy, input, threads)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("%s/%v/%s/%d", name, policy, input, threads)
	sel, err := e.selections.do(ctx, key, func() (*core.Selection, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.logf("analyzing %s (%v, %s)", name, policy, input)
		start := time.Now()
		cfg := e.Opts.config()
		a, err := core.Analyze(app.Prog, cfg)
		if err != nil {
			return nil, err
		}
		sel, err := core.Select(a)
		if err != nil {
			return nil, err
		}
		e.logf("analyzed %s (%v, %s) in %v", name, policy, input,
			time.Since(start).Round(time.Millisecond))
		return sel, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return sel, app, nil
}
