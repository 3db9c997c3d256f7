package core

import (
	"context"
	"fmt"
	"time"

	"looppoint/internal/pinball"
	"looppoint/internal/pool"
	"looppoint/internal/timing"
)

// SimOpts controls a region-simulation sweep.
type SimOpts struct {
	// Width bounds the sweep's simulations in flight (<= 0: one per CPU);
	// under Run it is one budget shared with an overlapped full run.
	Width int

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

// simulateOneRegion runs one looppoint's detailed simulation. The
// simulation kernel itself is CPU-bound and does not poll ctx; the pool's
// per-item claim check plus SimulateRegions' check once a region holds its
// slot are what make a cancelled sweep stop at region boundaries.
func simulateOneRegion(sel *Selection, simCfg timing.Config, checkpoints []*pinball.Pinball, i int) (RegionResult, error) {
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
// The first failure fails the sweep (a simulation error names its
// region): the extrapolation (Eq. 2) needs every looppoint.
//
// Cancellation or deadline expiry of ctx stops the sweep at the next
// region boundary instead of draining the queue, unstarted regions report
// ctx.Err(), and the aggregate error is the cancellation. The serving
// layer uses this to bound jobs by per-request deadlines.
func SimulateRegions(ctx context.Context, sel *Selection, simCfg timing.Config, opts SimOpts) ([]RegionResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	checkpoints, err := extractCheckpoints(sel)
	if err != nil {
		return nil, err
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
	results, err := pool.Map(ctx, opts.Width, len(sel.Points),
		func(ctx context.Context, i int) (RegionResult, error) {
			if i == 0 && opts.fill != nil {
				return RegionResult{}, nil
			}
			return simulate(ctx, i)
		})
	if err != nil {
		return nil, err
	}
	if opts.fill != nil {
		if res, ok := opts.fill(); ok {
			results[0] = res
		} else {
			// The full run never reached the tap: point 0 is simulated like
			// any other, so it fails the way it always did.
			res, err := pool.Map(ctx, 1, 1, simulate)
			if err != nil {
				return nil, err
			}
			results[0] = res[0]
		}
	}
	return results, nil
}
