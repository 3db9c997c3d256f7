package simpoint_test

// Statistical calibration of the stratified selection engine against
// synthetic populations with known ground truth (run via `make
// test-stats` and the CI calibration job). These are frequentist
// experiments over hundreds of fully seeded trials, so the verdicts are
// deterministic — a fixed seed list, not wall-clock randomness:
//
//   - a nominal 95% interval must achieve 92–98% empirical coverage of
//     the true total over repeated seeded selections, and
//   - Neyman allocation must beat proportional allocation on mean
//     interval half-width for a heteroscedastic population (the entire
//     point of spending the pilot phase).
//
// The estimator under test is the production path: draws come from
// Select("stratified", …) and intervals from stats.StratifiedEstimate
// — the same code core.ComputeIntervals runs on simulated regions.

import (
	"testing"

	"looppoint/internal/simpoint"
	"looppoint/internal/stats"
)

// calibPopulation is a synthetic region population with known
// per-region metric rates and a known true total.
type calibPopulation struct {
	vectors [][]float64
	weights []float64
	rates   []float64
	total   float64
}

// heteroscedastic builds a population of nPerCluster regions around each
// of 4 cluster centers. Cluster h has metric rate base[h] plus noise of
// scale sigma[h], and BBV jitter proportional to sigma[h] — the
// correlation the pilot phase exploits. Region work is uniform (the
// profiled slices are fixed-size), so the stratum total W_h·r̄_h is
// exact, not a ratio approximation.
func heteroscedastic(seed uint64) *calibPopulation {
	const (
		perCluster = 30
		dim        = 6
		work       = 100000.0
	)
	base := []float64{2, 3, 5, 8}
	sigma := []float64{0.02, 0.05, 0.8, 2.0}
	rng := prng(seed)
	// gauss approximates a standard normal as a centered Irwin–Hall sum.
	gauss := func() float64 {
		s := 0.0
		for i := 0; i < 12; i++ {
			s += rng.float()
		}
		return s - 6
	}
	p := &calibPopulation{}
	for c := range base {
		center := make([]float64, dim)
		for d := range center {
			center[d] = float64(c) * 1000
		}
		for i := 0; i < perCluster; i++ {
			vec := make([]float64, dim)
			for d := range vec {
				vec[d] = center[d] + 30*sigma[c]*gauss()
			}
			rate := base[c] + sigma[c]*gauss()
			if rate < 0.1 {
				rate = 0.1
			}
			p.vectors = append(p.vectors, vec)
			p.weights = append(p.weights, work)
			p.rates = append(p.rates, rate)
			p.total += rate * work
		}
	}
	return p
}

// estimateTotal mirrors core.ComputeIntervals: group the drawn rates by
// stratum and run the production stratified estimator.
func estimateTotal(p *calibPopulation, sel *simpoint.Selection, level float64) stats.Interval {
	samples := make([]stats.StratumSample, len(sel.Strata))
	for h, st := range sel.Strata {
		var work float64
		for _, m := range st.Members {
			work += p.weights[m]
		}
		samples[h] = stats.StratumSample{Work: work, Size: st.Size()}
	}
	for _, dr := range sel.Regions {
		samples[dr.Stratum].Rates = append(samples[dr.Stratum].Rates, p.rates[dr.Index])
	}
	return stats.StratifiedEstimate(samples, level)
}

// selectTrial runs one seeded stratified selection on the population.
func selectTrial(t *testing.T, p *calibPopulation, seed uint64, proportional bool) *simpoint.Selection {
	t.Helper()
	sel, err := simpoint.Select("stratified", p.vectors, p.weights,
		simpoint.Options{MaxK: 8, Seed: seed},
		simpoint.SelectorOpts{Budget: 60, Proportional: proportional})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return sel
}

// TestCalibrationCoverage runs 250 seeded trials and requires the
// nominal 95% interval to cover the true total between 92% and 98% of
// the time. Both directions matter: undercoverage means the intervals
// lie about their confidence, overcoverage means the estimator is
// wasting budget on needlessly wide intervals.
func TestCalibrationCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep skipped in -short mode")
	}
	const trials = 250
	p := heteroscedastic(12345)
	covered := 0
	for seed := uint64(1); seed <= trials; seed++ {
		sel := selectTrial(t, p, seed, false)
		iv := estimateTotal(p, sel, 0.95)
		if iv.HalfWidth <= 0 {
			t.Fatalf("seed %d: degenerate interval %v", seed, iv)
		}
		if iv.Covers(p.total) {
			covered++
		}
	}
	coverage := float64(covered) / trials
	t.Logf("empirical coverage: %d/%d = %.1f%% (nominal 95%%)", covered, trials, coverage*100)
	if coverage < 0.92 || coverage > 0.98 {
		t.Errorf("empirical coverage %.1f%% outside the 92–98%% acceptance band for a nominal 95%% interval", coverage*100)
	}
}

// TestCalibrationNeymanBeatsProportional compares allocation rules on
// the heteroscedastic population: across seeded trials, Neyman's mean
// interval half-width must be strictly smaller than proportional's —
// otherwise the pilot phase buys nothing.
func TestCalibrationNeymanBeatsProportional(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep skipped in -short mode")
	}
	const trials = 100
	p := heteroscedastic(12345)
	var neySum, propSum float64
	for seed := uint64(1); seed <= trials; seed++ {
		ney := estimateTotal(p, selectTrial(t, p, seed, false), 0.95)
		prop := estimateTotal(p, selectTrial(t, p, seed, true), 0.95)
		neySum += ney.HalfWidth
		propSum += prop.HalfWidth
	}
	neyMean, propMean := neySum/trials, propSum/trials
	t.Logf("mean half-width: Neyman %.0f vs proportional %.0f (%.1f%% tighter)",
		neyMean, propMean, (1-neyMean/propMean)*100)
	if neyMean >= propMean {
		t.Errorf("Neyman mean half-width %.0f is not below proportional %.0f on a heteroscedastic population", neyMean, propMean)
	}
}

// TestCalibrationEstimatorUnbiased sanity-checks the point estimate:
// averaged over seeded trials, the stratified estimate must land within
// half a percent of the true total (the draws are uniform within strata
// and region work is uniform, so the estimator is exactly unbiased).
func TestCalibrationEstimatorUnbiased(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep skipped in -short mode")
	}
	const trials = 200
	p := heteroscedastic(12345)
	var sum float64
	for seed := uint64(1); seed <= trials; seed++ {
		sum += estimateTotal(p, selectTrial(t, p, seed, false), 0.95).Mean
	}
	mean := sum / trials
	relErr := (mean - p.total) / p.total
	t.Logf("mean estimate %.0f vs true %.0f (rel err %.3f%%)", mean, p.total, relErr*100)
	if relErr < -0.005 || relErr > 0.005 {
		t.Errorf("mean estimate off by %.3f%% over %d trials — estimator biased", relErr*100, trials)
	}
}
