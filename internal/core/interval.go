package core

import (
	"looppoint/internal/stats"
	"looppoint/internal/timing"
)

// Intervals carries per-metric confidence intervals around an
// extrapolated Prediction: each metric's stratified ratio estimate with
// its symmetric half-width at Level. Intervals exist only for selection
// engines that draw at least two representatives from some stratum
// (within-stratum variance is otherwise not estimable — the classic
// pick-the-medoid rule always yields a pure point estimate), so
// consumers must treat a nil *Intervals as "point estimate only".
type Intervals struct {
	Level        float64        `json:"level"`
	Cycles       stats.Interval `json:"cycles"`
	Seconds      stats.Interval `json:"seconds"`
	Instructions stats.Interval `json:"instructions"`
	BranchMisses stats.Interval `json:"branch_misses"`
	Branches     stats.Interval `json:"branches"`
	L1DMisses    stats.Interval `json:"l1d_misses"`
	L2Misses     stats.Interval `json:"l2_misses"`
	L3Misses     stats.Interval `json:"l3_misses"`
}

// regionMetrics enumerates the extrapolated metrics in Intervals order.
var regionMetrics = []struct {
	name string
	get  func(*timing.Stats) float64
}{
	{"cycles", func(s *timing.Stats) float64 { return s.Cycles }},
	{"instructions", func(s *timing.Stats) float64 { return float64(s.Instructions) }},
	{"branch_misses", func(s *timing.Stats) float64 { return float64(s.BranchMisses) }},
	{"branches", func(s *timing.Stats) float64 { return float64(s.Branches) }},
	{"l1d_misses", func(s *timing.Stats) float64 { return float64(s.L1DMisses) }},
	{"l2_misses", func(s *timing.Stats) float64 { return float64(s.L2Misses) }},
	{"l3_misses", func(s *timing.Stats) float64 { return float64(s.L3Misses) }},
}

// ComputeIntervals derives per-metric confidence intervals from the
// simulated region results of a multi-draw selection. Each metric is
// treated as a per-work rate (metric / filtered instructions); per
// stratum the rate sample yields W_h·r̄_h with a finite-population-
// corrected variance (stats.StratifiedEstimate). Returns nil when the
// selection carries no strata (stubs served from the resume store), when no stratum
// holds two or more simulated draws, or when level is out of (0, 1) —
// the cases where a half-width would be fiction.
//
// In degraded mode the results list only holds surviving regions; the
// per-stratum sample sizes shrink accordingly, so intervals widen rather
// than silently overstate confidence.
func ComputeIntervals(sel *Selection, results []RegionResult, freqGHz, level float64) *Intervals {
	if sel == nil || sel.Sample == nil || !(level > 0 && level < 1) {
		return nil
	}
	strata := sel.Sample.Strata
	// Group surviving results by stratum, keeping per-metric rates.
	rates := make([][][]float64, len(regionMetrics))
	for m := range rates {
		rates[m] = make([][]float64, len(strata))
	}
	multiDraw := false
	for _, r := range results {
		h := r.Point.Cluster
		if h < 0 || h >= len(strata) || r.Point.Region.Filtered == 0 {
			continue
		}
		w := float64(r.Point.Region.Filtered)
		for m, metric := range regionMetrics {
			rates[m][h] = append(rates[m][h], metric.get(r.Stats)/w)
		}
		if len(rates[0][h]) >= 2 {
			multiDraw = true
		}
	}
	if !multiDraw {
		return nil
	}

	estimate := func(m int) stats.Interval {
		samples := make([]stats.StratumSample, 0, len(strata))
		for h, st := range strata {
			var work float64
			for _, member := range st.Members {
				work += float64(sel.Analysis.Profile.Regions[member].Filtered)
			}
			samples = append(samples, stats.StratumSample{
				Work: work, Size: st.Size(), Rates: rates[m][h],
			})
		}
		return stats.StratifiedEstimate(samples, level)
	}

	iv := &Intervals{Level: level}
	iv.Cycles = estimate(0)
	iv.Instructions = estimate(1)
	iv.BranchMisses = estimate(2)
	iv.Branches = estimate(3)
	iv.L1DMisses = estimate(4)
	iv.L2Misses = estimate(5)
	iv.L3Misses = estimate(6)
	// Seconds is cycles rescaled; half-widths scale linearly.
	hz := freqGHz * 1e9
	if hz > 0 {
		iv.Seconds = stats.Interval{
			Mean:      iv.Cycles.Mean / hz,
			HalfWidth: iv.Cycles.HalfWidth / hz,
		}
	}
	return iv
}
