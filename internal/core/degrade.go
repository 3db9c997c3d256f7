package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"looppoint/internal/faults"
	"looppoint/internal/pinball"
	"looppoint/internal/pool"
	"looppoint/internal/timing"
)

// ErrLowCoverage reports that too much of the selection's work mass was
// lost to failed region simulations for the extrapolation to be
// trustworthy.
var ErrLowCoverage = errors.New("core: residual coverage below threshold")

// DefaultMinCoverage is the default residual-coverage floor for degraded
// simulation: losing more than 10% of the selection's extrapolation
// weight fails the run rather than silently reporting a reweighted
// estimate.
const DefaultMinCoverage = 0.9

// RegionFailure records one looppoint whose simulation failed. Err is a
// string, not an error, so failures serialize cleanly into the harness
// resume store.
type RegionFailure struct {
	// Region is the failed looppoint's region index.
	Region int `json:"region"`
	// Err is the simulation's error text.
	Err string `json:"err"`
	// Weight is the share of the selection's extrapolation mass
	// (multiplier × filtered work) this looppoint carried.
	Weight float64 `json:"weight"`
}

// Degradation summarizes what a degraded-mode simulation lost: which
// regions failed and how much extrapolation weight survives. A nil or
// empty Degradation means the run was complete.
type Degradation struct {
	Failed []RegionFailure `json:"failed"`
	// ResidualCoverage is the surviving share of the selection's
	// extrapolation mass, in (0, 1]; 1 means nothing was lost.
	ResidualCoverage float64 `json:"residual_coverage"`
}

// Degraded reports whether any region was lost.
func (d *Degradation) Degraded() bool { return d != nil && len(d.Failed) > 0 }

// Summary renders the degradation for reports.
func (d *Degradation) Summary() string {
	if !d.Degraded() {
		return "complete"
	}
	return fmt.Sprintf("%d region(s) lost, residual coverage %.1f%%",
		len(d.Failed), d.ResidualCoverage*100)
}

// SimOpts controls a fault-tolerant region-simulation sweep.
type SimOpts struct {
	// Width bounds the sweep's simulations in flight (<= 0: one per CPU);
	// under Run it is one budget shared with an overlapped full run.
	Width int
	// Degraded enables collect-what-you-can mode: a region that fails is
	// dropped and recorded instead of aborting the sweep.
	Degraded bool
	// MinCoverage is the residual-coverage floor in degraded mode.
	// Falling below it returns ErrLowCoverage. Zero means
	// DefaultMinCoverage; a negative value disables the floor entirely
	// (any surviving coverage is accepted).
	MinCoverage float64

	// slots is Run's budget of simulations in flight, a semaphore shared
	// with the overlapped full run: a simulation holds one token while it
	// runs, so it owns a core when Width <= CPUs and its host time is its
	// own. Waiters do not watch ctx — holders are CPU-bound and finish, and
	// Run joins them anyway. Nil for a sweep on its own.
	slots chan struct{}
	// fill, when set, is Run's way to read point 0 — region 0, which starts
	// where the full run starts — off the full run instead of simulating
	// it: the sweep skips the point and calls fill once the others are
	// done. False (the run never reached its tap) simulates the point.
	fill func() (RegionResult, bool)
}

// simGauge, replaced only by tests, sees every detailed simulation — the
// full run (full) or one region — start (+1) and end (-1).
var simGauge = func(full bool, delta int) {}

// RegionSpecs describes every looppoint's region checkpoint for
// pinball.ExtractRegions: the region's bounds and markers, with the
// snapshot taken Config.WarmupRegions regions back under functional
// warm-up (clamped at the program start) and at the region start under
// WarmupNone. It is the one rule both the in-process sweep and exported
// checkpoint files are cut by.
func (sel *Selection) RegionSpecs() []pinball.RegionSpec {
	a := sel.Analysis
	warmupRegions := a.Config.WarmupRegions
	if warmupRegions <= 0 {
		warmupRegions = 1
	}
	specs := make([]pinball.RegionSpec, len(sel.Points))
	for i, lp := range sel.Points {
		r := lp.Region
		warmStart := r.StartICount
		if a.Config.Warmup == timing.WarmupFunctional {
			back := r.Index - warmupRegions
			if back < 0 {
				back = 0
			}
			warmStart = a.Profile.Regions[back].StartICount
		}
		specs[i] = pinball.RegionSpec{
			Name:            fmt.Sprintf("%s.r%d", a.Prog.Name, r.Index),
			WarmupStartStep: warmStart,
			StartStep:       r.StartICount,
			EndStep:         r.EndICount,
			Start:           r.Start,
			End:             r.End,
		}
	}
	return specs
}

// extractCheckpoints performs the one-sweep region-pinball extraction for
// checkpoint-driven simulation (nil for binary-driven mode).
func extractCheckpoints(sel *Selection) ([]*pinball.Pinball, error) {
	a := sel.Analysis
	if a.Config.RegionSim != RegionSimCheckpoint {
		return nil, nil
	}
	checkpoints, err := a.Pinball.ExtractRegions(a.Prog, sel.RegionSpecs())
	if err != nil {
		return nil, fmt.Errorf("core: extracting region pinballs: %w", err)
	}
	return checkpoints, nil
}

// simulateOneRegion runs one looppoint's detailed simulation. Injection
// site "core.region.sim" can force transient failures, slow calls, or
// panics here — the unit of failure the degraded mode tolerates. The
// simulation kernel itself is CPU-bound and does not poll ctx; the pool's
// per-item claim check plus SimulateRegions' check once a region holds its
// slot are what make a cancelled sweep stop at region boundaries.
func simulateOneRegion(sel *Selection, simCfg timing.Config, checkpoints []*pinball.Pinball, i int) (RegionResult, error) {
	if err := faults.Check("core.region.sim"); err != nil {
		return RegionResult{}, err
	}
	simGauge(false, +1)
	defer simGauge(false, -1)
	a := sel.Analysis
	lp := sel.Points[i]
	start := time.Now()
	sim, err := timing.New(simCfg, a.Prog)
	if err != nil {
		return RegionResult{}, err
	}
	sim.Seed = a.Config.Seed
	var st *timing.Stats
	if checkpoints != nil {
		st, err = sim.SimulateCheckpoint(checkpoints[i])
	} else {
		st, err = sim.SimulateRegion(lp.Region.Start, lp.Region.End, a.Config.Warmup)
	}
	if err != nil {
		return RegionResult{}, fmt.Errorf("core: region %d: %w", lp.Region.Index, err)
	}
	return RegionResult{Point: lp, Stats: st, HostTime: time.Since(start)}, nil
}

// SimulateRegions runs a detailed simulation of every looppoint on a
// worker pool (checkpoints make the runs independent — Section III-J).
// Each region gets its own simulator seeded from the analysis config, so
// the per-region statistics — and therefore the extrapolated prediction —
// are byte-identical at any width; only host time varies.
//
// Each region is simulated at most once: it is a deterministic function of
// its checkpoint, so a second run in place would fail the same way. Under
// Run with the full run requested, region 0 may not be simulated at all:
// its statistics are read off the full run (see Run).
//
// In strict mode (Degraded false) the first failure aborts the sweep and
// the returned Degradation is nil. In degraded mode every region runs;
// regions that fail are dropped, their loss is recorded in the returned
// Degradation, and the surviving results are returned in region order. If
// the surviving extrapolation mass falls below MinCoverage the sweep
// fails with ErrLowCoverage.
//
// Cancellation or deadline expiry of ctx stops the sweep at the next
// region boundary instead of draining the queue, unstarted regions report
// ctx.Err(), and the aggregate error is the cancellation. The serving
// layer uses this to bound jobs by per-request deadlines.
func SimulateRegions(ctx context.Context, sel *Selection, simCfg timing.Config, opts SimOpts) ([]RegionResult, *Degradation, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	checkpoints, err := extractCheckpoints(sel)
	if err != nil {
		return nil, nil, err
	}
	slots := opts.slots
	if slots == nil { // never blocks: the pool runs at most one worker per point
		slots = make(chan struct{}, len(sel.Points))
	}
	// With Config.ProgressDir set, completed regions are stored durably
	// and a sweep serves every region the store holds instead of
	// re-simulating it (see simprogress.go); rs is nil otherwise.
	rs := openRegionStore(sel, simCfg)
	simulate := func(ctx context.Context, i int) (RegionResult, error) {
		if res, ok := rs.lookup(i); ok {
			return res, nil
		}
		// The simulation runs inside the slot, so the wait for it is
		// outside HostTime; a sweep cancelled during the wait stops here.
		slots <- struct{}{}
		defer func() { <-slots }()
		if err := ctx.Err(); err != nil {
			return RegionResult{}, err
		}
		res, err := simulateOneRegion(sel, simCfg, checkpoints, i)
		if err == nil {
			rs.record(i, res)
		}
		return res, err
	}
	popts := pool.Options{Width: opts.Width, Degraded: opts.Degraded}
	results, errs, err := pool.MapWith(ctx, len(sel.Points), popts,
		func(ctx context.Context, i int) (RegionResult, error) {
			if i == 0 && opts.fill != nil {
				return RegionResult{}, nil
			}
			return simulate(ctx, i)
		})
	if err != nil {
		return nil, nil, err
	}
	if opts.fill != nil {
		if res, ok := opts.fill(); ok {
			results[0] = res
		} else {
			// The full run never reached the tap: point 0 is simulated like
			// any other, so it fails the way it always did.
			res, perr, err := pool.MapWith(ctx, 1, popts, simulate)
			if err != nil {
				return nil, nil, err
			}
			results[0], errs[0] = res[0], perr[0]
		}
	}
	if !opts.Degraded {
		return results, nil, nil
	}

	// Weigh each looppoint by its share of the selection's extrapolation
	// mass (multiplier × filtered work), so coverage reflects how much of
	// the whole-program estimate each loss removes.
	var totalMass float64
	for _, lp := range sel.Points {
		totalMass += lp.Multiplier * float64(lp.Region.Filtered)
	}
	deg := &Degradation{ResidualCoverage: 1}
	var survivors []RegionResult
	for i, lp := range sel.Points {
		if errs[i] == nil {
			survivors = append(survivors, results[i])
			continue
		}
		w := 0.0
		if totalMass > 0 {
			w = lp.Multiplier * float64(lp.Region.Filtered) / totalMass
		}
		deg.Failed = append(deg.Failed, RegionFailure{
			Region: lp.Region.Index,
			Err:    errs[i].Error(),
			Weight: w,
		})
		deg.ResidualCoverage -= w
	}
	if !deg.Degraded() {
		return survivors, nil, nil
	}
	minCov := opts.MinCoverage
	switch {
	case minCov == 0:
		minCov = DefaultMinCoverage
	case minCov < 0:
		minCov = 0 // explicit "no floor": accept any surviving coverage
	}
	if deg.ResidualCoverage < minCov {
		return survivors, deg, fmt.Errorf(
			"core: %d of %d regions failed, residual coverage %.1f%% < %.1f%%: %w",
			len(deg.Failed), len(sel.Points), deg.ResidualCoverage*100, minCov*100, ErrLowCoverage)
	}
	return survivors, deg, nil
}

// ExtrapolateDegraded reconstructs whole-program metrics from an
// incomplete region sweep: the surviving extrapolation is scaled by
// 1/ResidualCoverage, treating the lost regions as behaving like the
// weighted average of the survivors. With no degradation it is exactly
// Extrapolate.
func ExtrapolateDegraded(results []RegionResult, freqGHz float64, deg *Degradation) Prediction {
	p := Extrapolate(results, freqGHz)
	if !deg.Degraded() || deg.ResidualCoverage <= 0 {
		return p
	}
	s := 1 / deg.ResidualCoverage
	p.Cycles *= s
	p.Instructions *= s
	p.BranchMisses *= s
	p.Branches *= s
	p.L1DMisses *= s
	p.L2Misses *= s
	p.L3Misses *= s
	p.Stack.Base *= s
	p.Stack.Ifetch *= s
	p.Stack.Memory *= s
	p.Stack.Branch *= s
	p.Stack.Compute *= s
	p.Stack.Sync *= s
	p.Seconds = p.Cycles / (freqGHz * 1e9)
	return p
}
