package baselines

// SimCostModel estimates wall-clock evaluation time for Figure 1: how
// long each methodology takes to evaluate an application of totalInstrs
// instructions given a detailed-simulation speed (KIPS) and a functional
// fast-forward speed, assuming unlimited parallel simulation resources
// (the longest region bounds the parallel time).
type SimCostModel struct {
	DetailKIPS float64 // detailed simulation speed (paper assumes 100 KIPS)
	FFwdMIPS   float64 // functional fast-forward / replay speed
}

// DefaultCostModel mirrors the paper's Figure 1 assumptions.
func DefaultCostModel() SimCostModel {
	return SimCostModel{DetailKIPS: 100, FFwdMIPS: 100}
}

// FullDetail returns the seconds to simulate everything in detail.
func (c SimCostModel) FullDetail(totalInstrs float64) float64 {
	return totalInstrs / (c.DetailKIPS * 1e3)
}

// TimeBasedTime returns the seconds for time-based sampling with the
// given detail fraction: the detail windows run at detailed speed and the
// entire remainder must still be fast-forwarded.
func (c SimCostModel) TimeBasedTime(totalInstrs, detailFraction float64) float64 {
	detail := totalInstrs * detailFraction / (c.DetailKIPS * 1e3)
	ffwd := totalInstrs * (1 - detailFraction) / (c.FFwdMIPS * 1e6)
	return detail + ffwd
}

// SampledParallelTime returns the seconds to simulate a checkpointed
// sample whose largest region has largestRegion instructions (parallel
// simulation: the longest region determines time-to-results).
func (c SimCostModel) SampledParallelTime(largestRegion float64) float64 {
	return largestRegion / (c.DetailKIPS * 1e3)
}
