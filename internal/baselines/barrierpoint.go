// Package baselines implements the prior-work sampling methodologies the
// paper compares against: BarrierPoint (inter-barrier regions as the unit
// of work), the naive multi-threaded SimPoint adaptation (fixed global
// instruction-count slices, summed BBVs, no spin filtering), and the
// cost model of time-based periodic sampling (Figure 1).
package baselines

import (
	"fmt"

	"looppoint/internal/bbv"
	"looppoint/internal/core"
	"looppoint/internal/isa"
)

// ErrNoBarriers is returned for applications without barriers, where
// BarrierPoint is inapplicable (e.g. 657.xz_s — paper Section V-B).
var ErrNoBarriers = fmt.Errorf("baselines: application has no barriers; BarrierPoint not applicable")

// AnalyzeBarrierPoint profiles the program with inter-barrier regions as
// the unit of work: every global barrier release ends a region. The
// barrier-release address comes from the threading runtime (the paper's
// implementation hooks the OpenMP runtime's barrier callback the same
// way). The rule needs no loops, so the collector rides the one recording
// and the analysis has no Graph or Loops.
func AnalyzeBarrierPoint(prog *isa.Program, barrierRelease uint64, cfg core.Config) (*core.Analysis, error) {
	// Barrier releases are the only markers and the slice budget is one
	// instruction: every release closes a region.
	col := bbv.NewCollector(prog, []uint64{barrierRelease}, 1)
	pb, err := core.Record(prog, &cfg, col)
	if err != nil {
		return nil, fmt.Errorf("baselines: barrierpoint profile: %w", err)
	}
	prof := col.Finish()
	if len(prof.Regions) <= 1 {
		return nil, ErrNoBarriers
	}
	return &core.Analysis{
		Prog:    prog,
		Pinball: pb,
		Markers: []uint64{barrierRelease},
		Profile: prof,
		Config:  cfg,
	}, nil
}

// BarrierPointStats summarizes inter-barrier region structure — the
// quantity Figure 1 plots against input size (region growth is what makes
// BarrierPoint impractical for large inputs).
type BarrierPointStats struct {
	Regions       int
	LargestRegion uint64 // filtered instructions
	MeanRegion    float64
	TotalFiltered uint64
}

// RegionStats summarizes the inter-barrier regions of an analysis.
func RegionStats(a *core.Analysis) BarrierPointStats {
	s := BarrierPointStats{Regions: len(a.Profile.Regions), TotalFiltered: a.Profile.TotalFiltered}
	for _, r := range a.Profile.Regions {
		if r.Filtered > s.LargestRegion {
			s.LargestRegion = r.Filtered
		}
	}
	if s.Regions > 0 {
		s.MeanRegion = float64(s.TotalFiltered) / float64(s.Regions)
	}
	return s
}

// NaiveSimPointAnalysis profiles with the naive multi-threaded SimPoint
// adaptation of Section II: fixed-size slices counted in *global
// unfiltered* instructions (spin-loops included), per-thread BBVs summed
// rather than concatenated. Active-wait runs mislead it badly (the paper
// measures up to 68.44% error).
func NaiveSimPointAnalysis(prog *isa.Program, cfg core.Config) (*core.Analysis, error) {
	cfg.NoSpinFilter = true
	cfg.SumBBVs = true
	// Fixed instruction counts: no markers, straight icount slicing.
	col := bbv.NewCollector(prog, nil, cfg.SliceUnit*uint64(prog.NumThreads()))
	col.DisableSyncFilter()
	col.SliceOnICount()
	pb, err := core.Record(prog, &cfg, col)
	if err != nil {
		return nil, fmt.Errorf("baselines: naive profile: %w", err)
	}
	return &core.Analysis{Prog: prog, Pinball: pb, Profile: col.Finish(), Config: cfg}, nil
}
