// Package stats holds the survey-sampling statistics behind the
// stratified selection engine: sample moments, normal quantiles, and the
// stratified ratio-to-size estimator with finite-population-corrected
// confidence intervals. The selection engines (internal/simpoint) decide
// *which* regions to simulate; this package turns the simulated sample
// back into a population estimate with error bars, and the calibration
// suite (make test-stats) drives exactly these functions against
// populations with known ground truth.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SampleVariance returns the unbiased (n-1 denominator) sample variance
// of xs; 0 when fewer than two observations exist (a single draw carries
// no variance information).
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(n-1)
}

// NormalQuantile returns the standard normal inverse CDF at p ∈ (0, 1)
// (Acklam's rational approximation, |relative error| < 1.15e-9 — far
// below anything an empirical-coverage assertion can resolve).
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return math.NaN()
	}
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		plow  = 0.02425
		phigh = 1 - plow
	)
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return horner(q, c1, c2, c3, c4, c5, c6) / horner(q, d1, d2, d3, d4, 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -horner(q, c1, c2, c3, c4, c5, c6) / horner(q, d1, d2, d3, d4, 1)
	default:
		q := p - 0.5
		r := q * q
		return horner(r, a1, a2, a3, a4, a5, a6) * q / horner(r, b1, b2, b3, b4, b5, 1)
	}
}

// horner evaluates the polynomial with coefficients cs, highest degree
// first, at x. Each product is rounded on its own (float64(…)), so no
// back end fuses it with the addition that follows.
func horner(x float64, cs ...float64) float64 {
	s := cs[0]
	for _, c := range cs[1:] {
		s = float64(s*x) + c
	}
	return s
}

// ZForLevel returns the two-sided critical value for a confidence level
// in (0, 1): z such that P(|N(0,1)| <= z) = level (1.96 for 0.95).
func ZForLevel(level float64) float64 {
	if !(level > 0 && level < 1) {
		return math.NaN()
	}
	return NormalQuantile(0.5 + float64(level/2)) // level/2 compiles to a product
}

// Interval is a symmetric confidence interval.
type Interval struct {
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width"`
}

// Lo returns the lower bound.
func (iv Interval) Lo() float64 { return iv.Mean - iv.HalfWidth }

// Hi returns the upper bound.
func (iv Interval) Hi() float64 { return iv.Mean + iv.HalfWidth }

// Covers reports whether x lies inside the interval (inclusive).
func (iv Interval) Covers(x float64) bool { return x >= iv.Lo() && x <= iv.Hi() }

// String renders "mean ± half-width".
func (iv Interval) String() string {
	return fmt.Sprintf("%g ± %g", iv.Mean, iv.HalfWidth)
}

// StratumSample is one stratum's contribution to a stratified estimate:
// the stratum's total work, how many population units it holds, and the
// observed per-unit rates (metric per unit of work) of the sampled units.
type StratumSample struct {
	// Work is the stratum's total work W_h (e.g. summed filtered
	// instruction counts of every member region).
	Work float64
	// Size is the number of population units N_h in the stratum.
	Size int
	// Rates are the sampled units' per-work metric rates x_i / w_i.
	Rates []float64
}

// StratifiedEstimate computes the stratified ratio-to-size estimate of a
// population total and its confidence interval at the given level.
//
// Per stratum h the total is estimated as T̂_h = W_h · r̄_h, where r̄_h is
// the mean sampled rate; the estimator's variance uses the sample
// variance of the rates with a finite-population correction:
//
//	Var(T̂_h) = W_h² · (1 − n_h/N_h) · s²_h / n_h
//
// Strata sampled exhaustively (n_h = N_h) contribute zero variance, and
// strata with a single draw (n_h = 1) contribute zero *estimated*
// variance — their uncertainty is statistically invisible, which is why
// a pick-one-per-cluster selection yields a degenerate zero-width
// interval and the Report only carries intervals for engines that draw
// at least two units from some stratum (see DESIGN.md §12).
func StratifiedEstimate(strata []StratumSample, level float64) Interval {
	z := ZForLevel(level)
	var mean, variance float64
	for _, st := range strata {
		n := len(st.Rates)
		if n == 0 {
			continue
		}
		mean += float64(st.Work * Mean(st.Rates))
		if n < 2 || st.Size <= 0 {
			continue
		}
		fpc := 1 - float64(n)/float64(st.Size)
		if fpc < 0 {
			fpc = 0
		}
		variance += st.Work * st.Work * fpc * SampleVariance(st.Rates) / float64(n)
	}
	return Interval{Mean: mean, HalfWidth: z * math.Sqrt(variance)}
}

// MeanInterval returns the plain one-sample confidence interval for the
// mean of xs (no finite-population correction) — the summary lpsim's
// directory mode prints across checkpoint IPCs.
func MeanInterval(xs []float64, level float64) Interval {
	iv := Interval{Mean: Mean(xs)}
	if len(xs) >= 2 {
		iv.HalfWidth = ZForLevel(level) * math.Sqrt(SampleVariance(xs)/float64(len(xs)))
	}
	return iv
}
