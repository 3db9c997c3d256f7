package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"looppoint/internal/faults"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

func testSelection(t *testing.T) *Selection {
	t.Helper()
	p := testprog.Phased(4, 10, 150, omp.Passive)
	a, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Points) < 2 {
		t.Fatalf("need >= 2 looppoints for degradation tests, got %d", len(sel.Points))
	}
	return sel
}

// TestDegradedDropsFailedRegion: with one injected region failure, the
// degraded sweep completes, reports the loss, and reweights.
func TestDegradedDropsFailedRegion(t *testing.T) {
	sel := testSelection(t)
	defer faults.Enable(faults.NewPlan(1,
		faults.Rule{Site: "core.region.sim", Kind: faults.Transient, Rate: 1, Count: 1}))()
	// Width 1 makes the failing invocation deterministic: the first point.
	results, deg, err := SimulateRegions(context.Background(), sel, timing.Gainestown(4), SimOpts{
		Width: 1, Degraded: true, MinCoverage: 0.01,
	})
	if err != nil {
		t.Fatalf("degraded sweep failed: %v", err)
	}
	if !deg.Degraded() || len(deg.Failed) != 1 {
		t.Fatalf("degradation = %+v, want exactly one failure", deg)
	}
	if deg.Failed[0].Region != sel.Points[0].Region.Index {
		t.Errorf("failed region %d, want %d", deg.Failed[0].Region, sel.Points[0].Region.Index)
	}
	if len(results) != len(sel.Points)-1 {
		t.Errorf("%d survivors, want %d", len(results), len(sel.Points)-1)
	}
	if deg.ResidualCoverage >= 1 || deg.ResidualCoverage <= 0 {
		t.Errorf("residual coverage %f out of (0, 1)", deg.ResidualCoverage)
	}
	want := 1 - deg.Failed[0].Weight
	if math.Abs(deg.ResidualCoverage-want) > 1e-12 {
		t.Errorf("residual coverage %f, want %f", deg.ResidualCoverage, want)
	}
}

// TestDegradedPanicBecomesRegionFailure: a worker panic in degraded mode
// is confined to its region.
func TestDegradedPanicBecomesRegionFailure(t *testing.T) {
	sel := testSelection(t)
	defer faults.Enable(faults.NewPlan(1,
		faults.Rule{Site: "core.region.sim", Kind: faults.Panic, Rate: 1, Count: 1}))()
	results, deg, err := SimulateRegions(context.Background(), sel, timing.Gainestown(4), SimOpts{
		Width: 1, Degraded: true, MinCoverage: 0.01,
	})
	if err != nil {
		t.Fatalf("degraded sweep failed: %v", err)
	}
	if len(deg.Failed) != 1 {
		t.Fatalf("degradation = %+v, want one failure", deg)
	}
	if len(results) != len(sel.Points)-1 {
		t.Errorf("%d survivors, want %d", len(results), len(sel.Points)-1)
	}
}

// TestLowCoverageIsTyped: losing every region fails with ErrLowCoverage.
func TestLowCoverageIsTyped(t *testing.T) {
	sel := testSelection(t)
	defer faults.Enable(faults.NewPlan(1,
		faults.Rule{Site: "core.region.sim", Kind: faults.Transient, Rate: 1}))()
	_, deg, err := SimulateRegions(context.Background(), sel, timing.Gainestown(4), SimOpts{
		Width: 1, Degraded: true,
	})
	if !errors.Is(err, ErrLowCoverage) {
		t.Fatalf("err = %v, want ErrLowCoverage", err)
	}
	if len(deg.Failed) != len(sel.Points) {
		t.Errorf("%d failures recorded, want %d", len(deg.Failed), len(sel.Points))
	}
}

// TestExtrapolateDegradedScales: the reweighted prediction is the plain
// extrapolation divided by the residual coverage.
func TestExtrapolateDegradedScales(t *testing.T) {
	sel := testSelection(t)
	results, err := simulateAll(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := Extrapolate(results, 2.66)
	if got := ExtrapolateDegraded(results, 2.66, nil); got != plain {
		t.Errorf("nil degradation changed the prediction")
	}
	deg := &Degradation{
		Failed:           []RegionFailure{{Region: 0, Weight: 0.5}},
		ResidualCoverage: 0.5,
	}
	scaled := ExtrapolateDegraded(results, 2.66, deg)
	if math.Abs(scaled.Cycles-2*plain.Cycles) > 1e-9*plain.Cycles {
		t.Errorf("cycles %f, want %f", scaled.Cycles, 2*plain.Cycles)
	}
	if math.Abs(scaled.Seconds-2*plain.Seconds) > 1e-9*plain.Seconds {
		t.Errorf("seconds %f, want %f", scaled.Seconds, 2*plain.Seconds)
	}
	if math.Abs(scaled.Instructions-2*plain.Instructions) > 1e-6 {
		t.Errorf("instructions %f, want %f", scaled.Instructions, 2*plain.Instructions)
	}
}

// TestRunDegradedReportMarksLoss: the end-to-end Run in degraded mode
// surfaces the loss in the report and its summary.
func TestRunDegradedReportMarksLoss(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	defer faults.Enable(faults.NewPlan(1,
		faults.Rule{Site: "core.region.sim", Kind: faults.Transient, Rate: 1, Count: 1}))()
	rep, err := Run(context.Background(), p, testConfig(), timing.Gainestown(4), RunOpts{
		Width: 1, Degraded: true, MinCoverage: 0.01,
	})
	if err != nil {
		t.Fatalf("degraded Run failed: %v", err)
	}
	if !rep.Degradation.Degraded() {
		t.Fatal("report does not record the degradation")
	}
	sum := rep.Summary()
	if want := "degraded"; !strings.Contains(sum, want) {
		t.Errorf("summary %q does not mention %q", sum, want)
	}
}
