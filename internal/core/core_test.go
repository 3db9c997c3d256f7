package core

import (
	"context"
	"math"
	"testing"

	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SliceUnit = 1500 // small program, small slices
	cfg.FlowWindow = 512
	return cfg
}

// simulateAll is the strict (non-degraded) region sweep at the given
// pool width (0 = one worker per CPU).
func simulateAll(sel *Selection, simCfg timing.Config, width int) ([]RegionResult, error) {
	res, _, err := SimulateRegions(context.Background(), sel, simCfg, SimOpts{Width: width})
	return res, err
}

func TestAnalyzeProducesRegionsAndMarkers(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	a, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(a.Profile.Regions) < 3 {
		t.Fatalf("only %d regions", len(a.Profile.Regions))
	}
	if len(a.Markers) == 0 || len(a.Loops.Loops) == 0 {
		t.Fatal("no markers or loops identified")
	}
	for _, m := range a.Markers {
		blk, ok := p.BlockByAddr(m)
		if !ok {
			t.Fatalf("marker %#x is not a block address", m)
		}
		if blk.Routine.Image.Sync {
			t.Errorf("marker %#x lives in sync image", m)
		}
	}
}

func TestMultipliersConserveWork(t *testing.T) {
	// Invariant (Eq. 2): Σ_j multiplier_j × filtered_j over looppoints
	// equals the total filtered instruction count.
	p := testprog.Phased(4, 12, 150, omp.Active)
	a, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, lp := range sel.Points {
		sum += lp.Multiplier * float64(lp.Region.Filtered)
	}
	total := float64(a.Profile.TotalFiltered)
	if math.Abs(sum-total)/total > 1e-9 {
		t.Errorf("multiplier mass %.1f != total filtered %.1f", sum, total)
	}
	sizes := 0
	for _, lp := range sel.Points {
		sizes += lp.ClusterSize
	}
	if sizes != len(a.Profile.Regions) {
		t.Errorf("cluster sizes sum to %d, want %d regions", sizes, len(a.Profile.Regions))
	}
}

func TestEndToEndPredictionError(t *testing.T) {
	// The headline result at miniature scale: sampled simulation must
	// predict the full-run runtime within a few percent for a regular,
	// phased workload, for both wait policies (Figure 5a's shape).
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		p := testprog.Phased(4, 12, 200, policy)
		rep, err := Run(context.Background(), p, testConfig(), timing.Gainestown(4), RunOpts{SimulateFull: true})
		if err != nil {
			t.Fatalf("policy %v: Run: %v", policy, err)
		}
		if rep.RuntimeErrPct > 12 {
			t.Errorf("policy %v: runtime error %.2f%% too high (%s)", policy, rep.RuntimeErrPct, rep.Summary())
		}
		if len(rep.Selection.Points) >= len(rep.Selection.Analysis.Profile.Regions) {
			t.Errorf("policy %v: no reduction: %d looppoints for %d regions",
				policy, len(rep.Selection.Points), len(rep.Selection.Analysis.Profile.Regions))
		}
		if rep.Speedups.TheoreticalSerial <= 1 {
			t.Errorf("policy %v: theoretical serial speedup %.2f <= 1", policy, rep.Speedups.TheoreticalSerial)
		}
		if rep.Speedups.TheoreticalParallel < rep.Speedups.TheoreticalSerial {
			t.Errorf("policy %v: parallel speedup below serial", policy)
		}
	}
}

func TestSelfSamplingIdentity(t *testing.T) {
	// Property: when every region is its own cluster (maxK large, BIC
	// threshold forcing max clusters), extrapolation over ALL regions
	// simulated in their positions reproduces the full run's instruction
	// count almost exactly (cycles differ only through warmup effects).
	p := testprog.Phased(2, 6, 150, omp.Passive)
	cfg := testConfig()
	a, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := simulateAll(sel, timing.Gainestown(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	pred := Extrapolate(regions, 2.66)

	sim, err := timing.New(timing.Gainestown(2), p)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.SimulateFull()
	if err != nil {
		t.Fatal(err)
	}
	if e := PercentError(pred.Instructions, float64(full.Instructions)); e > 10 {
		t.Errorf("instruction extrapolation off by %.2f%%", e)
	}
}

func TestPercentError(t *testing.T) {
	cases := []struct{ p, a, want float64 }{
		{110, 100, 10},
		{90, 100, 10},
		{0, 0, 0},
		{5, 0, 100},
		{100, 100, 0},
	}
	for _, c := range cases {
		if got := PercentError(c.p, c.a); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("PercentError(%v,%v) = %v, want %v", c.p, c.a, got, c.want)
		}
	}
}

func TestHeterogeneousThreadsKeepClusters(t *testing.T) {
	// A heterogeneous workload (Figure 3's 657.xz_s.2 pattern) must
	// still produce a valid selection; per-thread concatenated vectors
	// keep imbalance visible.
	p := testprog.Heterogeneous(4, 10, 120, omp.Passive)
	a, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	shares := a.Profile.ThreadShare()
	// Later threads do more work: verify imbalance shows in the profile.
	imbalanced := false
	for _, s := range shares {
		if len(s) == 4 && s[3] > s[0]*1.5 {
			imbalanced = true
			break
		}
	}
	if !imbalanced {
		t.Error("heterogeneous workload shows no per-thread imbalance in profile")
	}
	if _, err := Select(a); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithoutFullSim(t *testing.T) {
	p := testprog.Phased(2, 6, 100, omp.Passive)
	rep, err := Run(context.Background(), p, testConfig(), timing.Gainestown(2), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full != nil {
		t.Error("full simulation ran despite being disabled")
	}
	if rep.Predicted.Cycles <= 0 {
		t.Error("no predicted cycles")
	}
	if rep.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestParallelAndSerialRegionSimsAgree(t *testing.T) {
	p := testprog.Phased(2, 8, 120, omp.Passive)
	a, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := simulateAll(sel, timing.Gainestown(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := simulateAll(sel, timing.Gainestown(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Stats.Cycles != par[i].Stats.Cycles ||
			serial[i].Stats.Instructions != par[i].Stats.Instructions {
			t.Errorf("region %d differs between serial and parallel simulation", i)
		}
	}
}

func TestSymmetricMarkerBoundariesStayOnEpisodeLeaders(t *testing.T) {
	// Regression test for mid-burst boundaries: with a symmetric
	// timestep header (all N threads enter once per step), region
	// boundaries must land on episode-leader counts (count ≡ 1 mod N),
	// so that the work inside each region is interleaving-invariant.
	p := testprog.Phased(4, 12, 150, omp.Passive)
	a, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a.Profile.Regions {
		if r.End.IsEnd || r.End.PC == 0 {
			continue
		}
		blk, ok := p.BlockByAddr(r.End.PC)
		if !ok {
			t.Fatalf("marker %v not a block", r.End)
		}
		n := a.Graph.Nodes[blk.Global]
		if n == nil || !n.Symmetric(4) {
			continue
		}
		if (r.End.Count-1)%4 != 0 {
			t.Errorf("region %d ends mid-burst at %v (symmetric marker)", r.Index, r.End)
		}
	}
}

func TestRegionSimulationsMatchProfiledWork(t *testing.T) {
	// Regression test for the 603.bwaves_s.2 instability: every
	// looppoint's checkpoint simulation must retire approximately the
	// instructions its profiled region contains — a boundary placed
	// mid-burst collapses or doubles the measured span.
	p := testprog.Phased(8, 10, 120, omp.Passive)
	cfg := testConfig()
	cfg.SliceUnit = 2000
	a, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	results, err := simulateAll(sel, timing.Gainestown(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		got := float64(r.Stats.Instructions)
		want := float64(r.Point.Region.UnfilteredLen())
		if got < 0.5*want || got > 1.8*want {
			t.Errorf("region %d simulated %0.f instructions, profile has %0.f",
				r.Point.Region.Index, got, want)
		}
	}
}
