package harness

import (
	"context"
	"fmt"

	"looppoint/internal/core"
	"looppoint/internal/omp"
	"looppoint/internal/results"
	"looppoint/internal/timing"
)

// AblationRow is one configuration's outcome in an ablation sweep.
type AblationRow struct {
	Config     string
	ErrPct     float64
	LoopPoints int
	Regions    int
	TheoPar    float64
}

// AblationResult is a one-application design-choice sweep.
type AblationResult struct {
	Title string
	App   string
	Rows  []AblationRow
}

// Render formats an ablation table.
func (r *AblationResult) Render() string {
	t := &results.Table{
		Title:   fmt.Sprintf("%s (%s)", r.Title, r.App),
		Headers: []string{"config", "runtime err %", "looppoints", "regions", "theo parallel x"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Config, row.ErrPct, row.LoopPoints, row.Regions, row.TheoPar)
	}
	return t.String()
}

// runVariant evaluates one configuration variant on one app.
func (e *Evaluator) runVariant(name string, policy omp.WaitPolicy, label string, mutate func(*core.Config)) (AblationRow, error) {
	app, err := e.BuildApp(name, policy, e.Opts.trainInput(), e.Opts.Threads)
	if err != nil {
		return AblationRow{}, err
	}
	cfg := e.Opts.config()
	mutate(&cfg)
	e.logf("ablation %s: %s", name, label)
	rep, err := core.Run(context.TODO(), app.Prog, cfg, timing.Gainestown(app.Prog.NumThreads()),
		core.RunOpts{SimulateFull: true, Width: e.Opts.Parallelism})
	if err != nil {
		return AblationRow{}, fmt.Errorf("harness: ablation %s/%s: %w", name, label, err)
	}
	return AblationRow{
		Config:     label,
		ErrPct:     rep.RuntimeErrPct,
		LoopPoints: len(rep.Selection.Points),
		Regions:    len(rep.Selection.Analysis.Profile.Regions),
		TheoPar:    rep.Speedups.TheoreticalParallel,
	}, nil
}

// variant is one named configuration mutation in an ablation sweep.
type variant struct {
	label  string
	mutate func(*core.Config)
}

// runVariants evaluates a sweep's variants on the worker pool, returning
// rows in sweep order regardless of completion order.
func (e *Evaluator) runVariants(app string, policy omp.WaitPolicy, vs []variant) ([]AblationRow, error) {
	return forEach(e, vs, func(v variant) (AblationRow, error) {
		return e.runVariant(app, policy, v.label, v.mutate)
	})
}

// AblationSpinFilter toggles synchronization-library filtering on an
// active-wait workload with imbalanced threads (npb-lu's wavefront skew),
// where barrier spin time is substantial. Note the result carefully:
// with loop markers retained, turning the filter off mostly inflates the
// unit of work uniformly, which Equation 2's ratios absorb — the large
// Section II errors need the *combination* of unfiltered counts with raw
// instruction-count boundaries (see NaiveSimPoint).
func (e *Evaluator) AblationSpinFilter() (*AblationResult, error) {
	const app = "npb-lu"
	res := &AblationResult{Title: "Ablation: spin-loop filtering (active wait)", App: app}
	rows, err := e.runVariants(app, omp.Active, []variant{
		{"filter on (LoopPoint)", func(c *core.Config) {}},
		{"filter off", func(c *core.Config) { c.NoSpinFilter = true }},
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// AblationGlobalBBV compares per-thread-concatenated global BBVs against
// naive summation on the heterogeneous 657.xz_s.2 (Section III-B).
func (e *Evaluator) AblationGlobalBBV() (*AblationResult, error) {
	const app = "657.xz_s.2"
	res := &AblationResult{Title: "Ablation: concatenated vs summed per-thread BBVs", App: app}
	rows, err := e.runVariants(app, omp.Passive, []variant{
		{"concatenated (LoopPoint)", func(c *core.Config) {}},
		{"summed", func(c *core.Config) { c.SumBBVs = true }},
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// AblationFlowControl toggles the flow-control scheduler during analysis
// on a host with emulated load imbalance (Section III-B: flow control
// "stabilize[s] the collected profile for any thread imbalance that is
// caused by external events on the host processor"). Both variants record
// on the same biased host — threads 0 and 1 receive 8× scheduling quanta —
// and only the flow-control window changes.
func (e *Evaluator) AblationFlowControl() (*AblationResult, error) {
	const app = "657.xz_s.2"
	bias := []int{8, 8, 1, 1}
	res := &AblationResult{Title: "Ablation: flow control under host imbalance", App: app}
	rows, err := e.runVariants(app, omp.Active, []variant{
		{"flow control on (LoopPoint)", func(c *core.Config) { c.HostBias = bias }},
		// A huge window effectively disables flow control: the biased
		// host's skew lands in the recorded profile uncorrected.
		{"flow control off", func(c *core.Config) {
			c.HostBias = bias
			c.FlowWindow = 1 << 40
		}},
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// AblationSliceSize sweeps the per-thread slice unit (Section III-B
// discusses the tension: small slices are warmup-sensitive and numerous,
// large slices leave too few intervals to cluster).
func (e *Evaluator) AblationSliceSize() (*AblationResult, error) {
	const app = "603.bwaves_s.1"
	res := &AblationResult{Title: "Ablation: slice size (per-thread units)", App: app}
	var vs []variant
	for _, unit := range []uint64{25_000, 50_000, 100_000, 200_000, 400_000} {
		u := unit
		vs = append(vs, variant{fmt.Sprintf("%dK", u/1000),
			func(c *core.Config) { c.SliceUnit = u }})
	}
	rows, err := e.runVariants(app, omp.Active, vs)
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// AblationMaxK sweeps the maximum cluster count (paper: maxK = 50) on a
// phase-rich application; clamping below the true phase count forces
// dissimilar regions into one cluster and the error rises, while raising
// maxK beyond what the BIC selects changes nothing.
func (e *Evaluator) AblationMaxK() (*AblationResult, error) {
	const app = "621.wrf_s.1"
	res := &AblationResult{Title: "Ablation: maxK", App: app}
	var vs []variant
	for _, k := range []int{1, 2, 5, 50} {
		kk := k
		vs = append(vs, variant{fmt.Sprintf("maxK=%d", kk),
			func(c *core.Config) { c.MaxK = kk }})
	}
	rows, err := e.runVariants(app, omp.Active, vs)
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// AblationVariableSlices compares fixed-budget slicing against
// phase-aligned variable-length slicing (Section III-B's alternative).
func (e *Evaluator) AblationVariableSlices() (*AblationResult, error) {
	const app = "627.cam4_s.1"
	res := &AblationResult{Title: "Ablation: fixed vs variable-length slices", App: app}
	rows, err := e.runVariants(app, omp.Passive, []variant{
		{"fixed-length (LoopPoint)", func(c *core.Config) {}},
		{"variable-length", func(c *core.Config) { c.VariableSlices = true }},
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// AblationPrefetcher evaluates the same application, with the same
// microarchitecture-independent looppoint selection, on systems with a
// next-line hardware prefetcher enabled — the "new hardware without an
// analytical model" scenario the paper argues sampled simulation must
// support (Section VI): the analysis never saw the prefetcher, yet the
// sample predicts the modified machine.
func (e *Evaluator) AblationPrefetcher() (*AblationResult, error) {
	const appName = "649.fotonik3d_s.1"
	res := &AblationResult{Title: "Ablation: hardware prefetcher (next-N-line)", App: appName}
	app, err := e.BuildApp(appName, omp.Passive, e.Opts.trainInput(), e.Opts.Threads)
	if err != nil {
		return nil, err
	}
	rows, err := forEach(e, []int{0, 1, 2}, func(lines int) (AblationRow, error) {
		simCfg := timing.Gainestown(app.Prog.NumThreads())
		simCfg.PrefetchNextLines = lines
		e.logf("ablation %s: prefetch %d lines", appName, lines)
		rep, err := core.Run(context.TODO(), app.Prog, e.Opts.config(), simCfg,
			core.RunOpts{SimulateFull: true, Width: e.Opts.Parallelism})
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Config:     fmt.Sprintf("prefetch %d lines", lines),
			ErrPct:     rep.RuntimeErrPct,
			LoopPoints: len(rep.Selection.Points),
			Regions:    len(rep.Selection.Analysis.Profile.Regions),
			TheoPar:    rep.Speedups.TheoreticalParallel,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// AblationWarmup compares warmup strategies for region simulation
// (Section III-F).
func (e *Evaluator) AblationWarmup() (*AblationResult, error) {
	const app = "619.lbm_s.1"
	res := &AblationResult{Title: "Ablation: region warmup", App: app}
	rows, err := e.runVariants(app, omp.Passive, []variant{
		{"checkpoint + warmup region", func(c *core.Config) {}},
		{"checkpoint, cold start", func(c *core.Config) { c.Warmup = timing.WarmupNone }},
		{"binary-driven, perfect warmup", func(c *core.Config) { c.RegionSim = core.RegionSimBinaryDriven }},
		{"binary-driven, cold", func(c *core.Config) {
			c.RegionSim = core.RegionSimBinaryDriven
			c.Warmup = timing.WarmupNone
		}},
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}
