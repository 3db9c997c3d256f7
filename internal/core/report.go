package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"looppoint/internal/bbv"
	"looppoint/internal/isa"
	"looppoint/internal/pool"
	"looppoint/internal/timing"
)

// Speedups captures the paper's four speedup definitions (Section V-B).
type Speedups struct {
	// Theoretical: reduction in filtered instructions to simulate in
	// detail; serial sums all looppoints, parallel is bounded by the
	// largest one.
	TheoreticalSerial   float64
	TheoreticalParallel float64
	// Actual: reduction in measured simulation (host) time.
	ActualSerial   float64
	ActualParallel float64
}

// ComputeTheoretical derives instruction-count speedups from a selection.
func ComputeTheoretical(sel *Selection) Speedups {
	total := float64(sel.Analysis.Profile.TotalFiltered)
	var sum, max float64
	for _, lp := range sel.Points {
		f := float64(lp.Region.Filtered)
		sum += f
		if f > max {
			max = f
		}
	}
	var s Speedups
	if sum > 0 {
		s.TheoreticalSerial = total / sum
	}
	if max > 0 {
		s.TheoreticalParallel = total / max
	}
	return s
}

// AddActual fills in measured-time speedups given the full-simulation
// host time and the per-region host times.
func (s *Speedups) AddActual(fullTime time.Duration, regions []RegionResult) {
	var sum, max time.Duration
	for _, r := range regions {
		sum += r.HostTime
		if r.HostTime > max {
			max = r.HostTime
		}
	}
	if sum > 0 {
		s.ActualSerial = float64(fullTime) / float64(sum)
	}
	if max > 0 {
		s.ActualParallel = float64(fullTime) / float64(max)
	}
}

// Report is the complete outcome of an end-to-end LoopPoint evaluation of
// one application: selection, region simulations, extrapolation, and —
// when the full run was simulated — prediction errors.
type Report struct {
	Name      string
	Selection *Selection
	Regions   []RegionResult
	Predicted Prediction

	// Degradation is non-nil when the region sweep ran in degraded mode
	// and lost regions; Predicted is then the coverage-reweighted
	// estimate.
	Degradation *Degradation

	// Intervals carries per-metric confidence intervals around Predicted
	// (mean ± half-width at Intervals.Level). Nil for point-estimate
	// selection engines — only engines drawing two or more
	// representatives from some stratum make variance estimable.
	Intervals *Intervals

	Full         *timing.Stats
	FullHostTime time.Duration

	// Errors versus the full simulation (valid when Full != nil).
	RuntimeErrPct  float64
	CyclesErrPct   float64
	BranchMPKIDiff float64
	L1DMPKIDiff    float64
	L2MPKIDiff     float64
	L3MPKIDiff     float64

	Speedups Speedups
}

// RunOpts controls an end-to-end run.
type RunOpts struct {
	// SimulateFull runs the whole-application detailed simulation to
	// compute prediction errors (skipped for ref-scale inputs, where the
	// paper also only reports speedups).
	SimulateFull bool
	// Width is the budget of detailed simulations in flight — looppoints
	// and, with SimulateFull, the full run overlapped with them (<= 0: one
	// per CPU, 1: serial). The report is identical at every width; only
	// host time changes.
	Width int
	// Degraded tolerates per-region simulation failures: failed regions
	// are dropped, recorded in Report.Degradation, and the prediction is
	// reweighted by the residual coverage.
	Degraded bool
	// MinCoverage is the degraded-mode residual-coverage floor
	// (0: DefaultMinCoverage; negative: no floor).
	MinCoverage float64
}

// Run performs the complete LoopPoint flow on one program: analyze,
// select, simulate the looppoints, extrapolate, and (optionally) compare
// against the full detailed simulation. The full run needs nothing the
// sampled lane computes: at width >= 2 it starts on its own goroutine
// before Analyze, holds one slot of the width until it ends (the sweep is
// width-1 wide until then, width wide after) and is joined after the
// sweep; at width 1 it is called in place after the sweep.
//
// Region 0 starts where the full run starts, so when its run would also
// see the same OS answers (firstPointTap) the sweep does not simulate it
// again: its statistics are the full run's at region 0's end marker, read
// by a tap on the full run. At width 1 the tap is that marker; at width
// >= 2 the full run starts before any marker is known, so only a region 0
// that ends with the program is read off it.
//
// The kernels are CPU-bound and do not poll ctx: cancellation is honored
// at phase boundaries and, within the sweep, at region boundaries. The
// overlapped full run is joined on every return path — no goroutine
// outlives Run — so a cancelled or failed overlapped run returns when the
// full run ends, as a run cancelled in the width-1 full-run phase does.
func Run(ctx context.Context, prog *isa.Program, cfg Config, simCfg timing.Config, opts RunOpts) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	width := opts.Width
	if width <= 0 {
		width = pool.DefaultWidth()
	}
	slots := make(chan struct{}, width)
	var overlapped chan fullRun
	if opts.SimulateFull && width >= 2 {
		overlapped = make(chan fullRun, 1)
		go func() { overlapped <- simulateFull(ctx, prog, cfg, simCfg, slots, bbv.Marker{IsEnd: true}) }()
	}
	// fullWith joins the overlapped run, or runs the full run in place
	// tapped at tap, the first time it is called; the sweep may call it
	// first, to fill region 0.
	var full fullRun
	joined := false
	fullWith := func(tap bbv.Marker) fullRun {
		if !joined {
			joined = true
			if overlapped != nil {
				full = <-overlapped
			} else {
				full = simulateFull(ctx, prog, cfg, simCfg, slots, tap)
			}
		}
		return full
	}
	rep, err := runSampled(ctx, prog, cfg, simCfg, opts, slots, overlapped != nil, fullWith)
	if opts.SimulateFull && (overlapped != nil || err == nil) {
		fullWith(bbv.Marker{}) // a start marker: no tap
	}
	var pe *pool.PanicError
	if errors.As(full.err, &pe) {
		panic(pe) // re-raised on the caller's goroutine, as the pool does
	}
	if err == nil {
		err = full.err
	}
	if err != nil {
		return nil, err
	}
	if full.stats != nil {
		rep.Full, rep.FullHostTime = full.stats, full.host
		rep.computeErrors()
		rep.Speedups.AddActual(rep.FullHostTime, rep.Regions)
	}
	return rep, nil
}

// runSampled is Run's sampled lane: analysis, selection, the region sweep
// under the shared slot budget, and extrapolation. With the full run
// requested, fullWith hands the sweep the full run tapped at region 0's
// end (overlapped: the run already started, tapped at the program's end).
func runSampled(ctx context.Context, prog *isa.Program, cfg Config, simCfg timing.Config, opts RunOpts, slots chan struct{},
	overlapped bool, fullWith func(bbv.Marker) fullRun) (*Report, error) {
	a, err := Analyze(prog, cfg)
	if err != nil {
		return nil, err
	}
	sel, err := Select(a)
	if err != nil {
		return nil, err
	}
	sopts := SimOpts{
		Width:       opts.Width,
		Degraded:    opts.Degraded,
		MinCoverage: opts.MinCoverage,
		slots:       slots,
	}
	if tap, ok := firstPointTap(sel, cfg.Seed); ok && opts.SimulateFull && (!overlapped || tap.IsEnd) {
		sopts.fill = func() (RegionResult, bool) {
			f := fullWith(tap)
			if f.tap == nil {
				return RegionResult{}, false
			}
			return RegionResult{Point: sel.Points[0], Stats: f.tap, HostTime: f.tapHost}, true
		}
	}
	regions, deg, err := SimulateRegions(ctx, sel, simCfg, sopts)
	if err != nil {
		return nil, err
	}
	return &Report{
		Name:        prog.Name,
		Selection:   sel,
		Regions:     regions,
		Degradation: deg,
		Predicted:   ExtrapolateDegraded(regions, simCfg.FreqGHz, deg),
		Intervals:   ComputeIntervals(sel, regions, simCfg.FreqGHz, sel.Analysis.Config.Confidence),
		Speedups:    ComputeTheoretical(sel),
	}, nil
}

// firstPointTap reports whether the selection's first point can be read
// off a full run seeded with fullSeed, and the marker to tap that run at.
// It can when it is region 0 — which starts at the program's first
// instruction, from the initial state with no warm-up, exactly where the
// full run starts — and its run sees the full run's OS answers: a
// binary-driven run seeded alike does, and so does a checkpoint whose
// recording injected no syscall results (the replay then falls through to
// the seeded OS model, as the full run uses). The end marker must be the
// program's end or a PC marker.
func firstPointTap(sel *Selection, fullSeed uint64) (bbv.Marker, bool) {
	if len(sel.Points) == 0 {
		return bbv.Marker{}, false
	}
	r := sel.Points[0].Region
	if r.Index != 0 || !r.Start.IsStart() || r.End.IsICount() {
		return bbv.Marker{}, false
	}
	a := sel.Analysis
	if a.Config.Seed != fullSeed {
		return bbv.Marker{}, false // the OS models are seeded differently
	}
	if a.Config.RegionSim == RegionSimCheckpoint {
		for _, log := range a.Pinball.Syscalls {
			if len(log) > 0 {
				return bbv.Marker{}, false
			}
		}
	}
	return r.End, true
}

// fullRun is the outcome of the whole-application reference simulation.
type fullRun struct {
	stats *timing.Stats
	host  time.Duration
	err   error
	// tap is the statistics at the run's tap and tapHost the host time the
	// run had taken when it fired; tap is nil if it never fired.
	tap     *timing.Stats
	tapHost time.Duration
}

// simulateFull runs the reference simulation in one slot of the budget,
// tapped at tap, unless ctx is already done; a panic comes back as a
// *pool.PanicError.
func simulateFull(ctx context.Context, prog *isa.Program, cfg Config, simCfg timing.Config, slots chan struct{}, tap bbv.Marker) fullRun {
	if err := ctx.Err(); err != nil {
		return fullRun{err: err}
	}
	f, err := pool.Protect(func() (fullRun, error) {
		slots <- struct{}{}
		defer func() { <-slots }()
		simGauge(true, +1)
		defer simGauge(true, -1)
		start := time.Now()
		sim, err := timing.New(simCfg, prog)
		if err != nil {
			return fullRun{}, err
		}
		sim.Seed = cfg.Seed
		var f fullRun
		f.stats, err = sim.SimulateFullTap(tap, func(st *timing.Stats) {
			f.tap, f.tapHost = st, time.Since(start)
		})
		if err != nil {
			return f, fmt.Errorf("core: full simulation of %s: %w", prog.Name, err)
		}
		f.host = time.Since(start)
		return f, nil
	})
	f.err = err
	return f
}

func (r *Report) computeErrors() {
	full := r.Full
	r.CyclesErrPct = PercentError(r.Predicted.Cycles, full.Cycles)
	r.RuntimeErrPct = PercentError(r.Predicted.Seconds, full.RuntimeSeconds())
	r.BranchMPKIDiff = absDiff(r.Predicted.BranchMPKI(), full.BranchMPKI())
	r.L1DMPKIDiff = absDiff(r.Predicted.L1DMPKI(), full.L1DMPKI())
	r.L2MPKIDiff = absDiff(r.Predicted.L2MPKI(), full.L2MPKI())
	r.L3MPKIDiff = absDiff(r.Predicted.L3MPKI(), full.L3MPKI())
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Summary renders a one-line report.
func (r *Report) Summary() string {
	s := fmt.Sprintf("%s: %d regions -> %d looppoints", r.Name,
		len(r.Selection.Analysis.Profile.Regions), len(r.Selection.Points))
	if r.Degradation.Degraded() {
		s += fmt.Sprintf(" [degraded: %s]", r.Degradation.Summary())
	}
	if r.Intervals != nil {
		s += fmt.Sprintf(", runtime %s s (%.0f%% CI)",
			r.Intervals.Seconds, r.Intervals.Level*100)
	}
	if r.Full != nil {
		s += fmt.Sprintf(", runtime err %.2f%%", r.RuntimeErrPct)
	}
	s += fmt.Sprintf(", theoretical speedup %.1fx serial / %.1fx parallel",
		r.Speedups.TheoreticalSerial, r.Speedups.TheoreticalParallel)
	return s
}
