package core

import (
	"reflect"
	"testing"

	"looppoint/internal/omp"
	"looppoint/internal/simpoint"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

// TestSimulateRegionsWidthInvariant requires identical per-region
// statistics and an identical extrapolated prediction at every pool
// width: each region gets its own simulator seeded the same way, so
// worker scheduling must not leak into the results.
func TestSimulateRegionsWidthInvariant(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	a, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	freq := timing.Gainestown(1).FreqGHz
	base, err := simulateAll(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	basePred := Extrapolate(base, freq)
	for _, width := range []int{2, 4, 8} {
		res, err := simulateAll(sel, timing.Gainestown(4), width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(res) != len(base) {
			t.Fatalf("width %d: %d results, want %d", width, len(res), len(base))
		}
		for i := range res {
			if res[i].Point.Region.Index != base[i].Point.Region.Index {
				t.Errorf("width %d: result %d is region %d, want %d (ordering unstable)",
					width, i, res[i].Point.Region.Index, base[i].Point.Region.Index)
			}
			// Full deep equality: pooled timing systems must
			// leave no residue regardless of which worker simulated which
			// region, so every counter — not just the headline three —
			// must match the width-1 sweep bit-for-bit.
			if !reflect.DeepEqual(res[i].Stats, base[i].Stats) {
				t.Errorf("width %d: region %d stats differ from width 1:\n%+v\nvs\n%+v",
					width, i, res[i].Stats, base[i].Stats)
			}
		}
		if pred := Extrapolate(res, freq); pred != basePred {
			t.Errorf("width %d: prediction differs from width 1:\n%+v\nvs\n%+v",
				width, pred, basePred)
		}
	}
}

// TestSelectClusterWorkersInvariant requires the clustering stage — BBV
// projection and the parallel k=1..maxK BIC sweep — to produce an
// identical selection at every worker width: per-k seeding is fixed and
// attempts are gathered by k, so pool scheduling must not leak into the
// chosen k, the assignments, or the multipliers.
func TestSelectClusterWorkersInvariant(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	base := func() *Selection {
		cfg := testConfig()
		cfg.ClusterWorkers = 1
		a, err := Analyze(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(a)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}()
	for _, workers := range []int{2, 8} {
		cfg := testConfig()
		cfg.ClusterWorkers = workers
		a, err := Analyze(p, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sel, err := Select(a)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base.Result, sel.Result) {
			t.Errorf("workers=%d: clustering Result differs from workers=1", workers)
		}
		if !reflect.DeepEqual(base.Points, sel.Points) {
			t.Errorf("workers=%d: looppoint selection differs from workers=1", workers)
		}
	}
}

// naiveMedoid is the medoid selection engine over the naive clustering
// reference: one stratum per cluster of simpoint.ClusterSlow (serial
// KMeansSlow sweep), each cluster's nearest-to-centroid region drawn once.
type naiveMedoid struct{}

func (naiveMedoid) Name() string { return "simpoint" }

func (naiveMedoid) Select(vectors [][]float64, weights []float64, copts simpoint.Options, _ simpoint.SelectorOpts) (*simpoint.Selection, error) {
	res, err := simpoint.ClusterSlow(vectors, weights, copts)
	if err != nil {
		return nil, err
	}
	sel := &simpoint.Selection{Engine: "simpoint", Result: res, Strata: make([]simpoint.Stratum, res.K)}
	for i, j := range res.Assign {
		sel.Strata[j].Members = append(sel.Strata[j].Members, i)
		sel.Strata[j].Work += weights[i]
	}
	simpoint.NormalizeStrata(sel.Strata)
	for j, rep := range res.Reps {
		sel.Strata[j].Sampled = 1
		sel.Regions = append(sel.Regions, simpoint.SelectedRegion{Index: rep, Stratum: j})
	}
	return simpoint.FinishSelection(sel), nil
}

// TestFastSlowPathsByteIdentical holds the pipeline to the layer oracles.
// No flag selects a reference engine; the expected side is composed here
// from the references themselves — a bare recording, the DCFG builder's
// OnInstr driven through a replay of it, a Collector driven per
// instruction (referenceAnalysis), the naive projection
// (ProjectRegionsSlow / SumProjectRegionsSlow) and the naive k-means
// sweep behind a hand-rolled medoid engine — and Analyze→Select must
// equal it on markers, profile, clustering, looppoints and multipliers.
// Region simulation against the per-instruction warm-up loop is pinned
// where that loop lives, in timing/fastforward_test.go.
func TestFastSlowPathsByteIdentical(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	configs := identityConfigs()
	configs["sumbbvs"] = func(c *Config) { c.SumBBVs = true }
	for name, mutate := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			mutate(&cfg)

			want := referenceAnalysis(t, p, cfg)
			prof := want.Profile
			project := simpoint.ProjectRegionsSlow
			if cfg.SumBBVs {
				project = simpoint.SumProjectRegionsSlow
			}
			wantSel, err := selectFrom(want,
				project(prof.Regions, prof.NumBlocks, simpoint.DefaultDims, want.Config.Seed), naiveMedoid{})
			if err != nil {
				t.Fatal(err)
			}

			got, err := Analyze(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotSel, err := Select(got)
			if err != nil {
				t.Fatal(err)
			}
			analysisEquals(t, "pipeline vs oracles", got, want)
			if !reflect.DeepEqual(gotSel.Result, wantSel.Result) {
				t.Error("clustering Result differs from the naive projection + k-means sweep")
			}
			if !reflect.DeepEqual(gotSel.Sample, wantSel.Sample) {
				t.Error("strata and draws differ from the naive medoid engine")
			}
			if len(gotSel.Points) == 0 || !reflect.DeepEqual(gotSel.Points, wantSel.Points) {
				t.Errorf("looppoints or multipliers differ from the oracles:\npipeline: %+v\noracles:  %+v", gotSel.Points, wantSel.Points)
			}
		})
	}
}
