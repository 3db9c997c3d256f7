package simpoint_test

import (
	"reflect"
	"testing"

	"looppoint/internal/core"
	"looppoint/internal/omp"
	"looppoint/internal/simpoint"
	"looppoint/internal/testprog"
)

// naiveEngine is the registry name of naiveMedoid.
const naiveEngine = "naive-medoid"

// naiveMedoid is the medoid selection engine over the naive clustering
// reference: one stratum per cluster of ClusterSlow (serial KMeansSlow
// sweep), each cluster's nearest-to-centroid region drawn once. It is
// registered so core.Select runs it through the product's own looppoint
// and multiplier code; like every engine registered by a test in this
// package it keeps the name/engine contract the property tests check.
type naiveMedoid struct{}

func init() {
	simpoint.RegisterSelector(naiveEngine, func() simpoint.Selector { return naiveMedoid{} })
}

func (naiveMedoid) Name() string { return naiveEngine }

func (naiveMedoid) Select(vectors [][]float64, weights []float64, copts simpoint.Options, _ simpoint.SelectorOpts) (*simpoint.Selection, error) {
	res, err := simpoint.ClusterSlow(vectors, weights, copts)
	if err != nil {
		return nil, err
	}
	sel := &simpoint.Selection{Engine: naiveEngine, Result: res, Strata: make([]simpoint.Stratum, res.K)}
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

// TestPipelineSelectionMatchesNaiveReferences holds core.Select to the
// clustering oracles, on the analyses core's TestFastSlowPathsByteIdentical
// holds to theirs: the naive projection (ProjectRegionsSlow /
// SumProjectRegionsSlow) must equal the one Select clusters, and Select
// under the default engine must equal Select under the naive medoid
// engine on clustering, strata, draws, looppoints and multipliers.
func TestPipelineSelectionMatchesNaiveReferences(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	for name, mutate := range map[string]func(*core.Config){
		"default":      func(*core.Config) {},
		"nospinfilter": func(c *core.Config) { c.NoSpinFilter = true },
		"variableslices": func(c *core.Config) {
			c.VariableSlices = true
			c.MarkerEntryBudget = 1000
		},
		"hostbias": func(c *core.Config) { c.HostBias = []int{1, 3, 1, 2} },
		"sumbbvs":  func(c *core.Config) { c.SumBBVs = true },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.SliceUnit = 1500
			cfg.FlowWindow = 512
			mutate(&cfg)
			a, err := core.Analyze(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Select(a)
			if err != nil {
				t.Fatal(err)
			}

			prof, seed := a.Profile, a.Config.Seed
			slow, fast := simpoint.ProjectRegionsSlow, simpoint.ProjectRegionsN
			if cfg.SumBBVs {
				slow, fast = simpoint.SumProjectRegionsSlow, simpoint.SumProjectRegionsN
			}
			if !reflect.DeepEqual(slow(prof.Regions, prof.NumBlocks, simpoint.DefaultDims, seed),
				fast(prof.Regions, prof.NumBlocks, simpoint.DefaultDims, seed, a.Config.ClusterWorkers)) {
				t.Fatal("the projection Select clusters differs from the naive projection")
			}
			naive := *a
			naive.Config.Selector = naiveEngine
			want, err := core.Select(&naive)
			if err != nil {
				t.Fatal(err)
			}
			want.Sample.Engine = got.Sample.Engine // the one field the registry name sets

			if !reflect.DeepEqual(got.Result, want.Result) {
				t.Error("clustering Result differs from the naive projection + k-means sweep")
			}
			if !reflect.DeepEqual(got.Sample, want.Sample) {
				t.Error("strata and draws differ from the naive medoid engine")
			}
			if len(got.Points) == 0 || !reflect.DeepEqual(got.Points, want.Points) {
				t.Errorf("looppoints or multipliers differ from the oracles:\npipeline: %+v\noracles:  %+v", got.Points, want.Points)
			}
		})
	}
}
