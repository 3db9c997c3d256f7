package simpoint_test

import (
	"reflect"
	"sort"
	"testing"

	"looppoint/internal/core"
	"looppoint/internal/omp"
	"looppoint/internal/simpoint"
	"looppoint/internal/testprog"
)

// naiveEngine is the engine name naiveMedoid stamps on its selections.
const naiveEngine = "naive-medoid"

// naiveMedoid is the medoid selection rule over the naive clustering
// reference: one stratum per cluster of ClusterSlow (serial KMeansSlow
// sweep), each cluster's nearest-to-centroid region drawn once. It keeps
// the selection contract the property tests check, which sweep it
// beside the product engines.
func naiveMedoid(vectors [][]float64, weights []float64, copts simpoint.Options) (*simpoint.Selection, error) {
	res, err := simpoint.ClusterSlow(vectors, weights, copts)
	if err != nil {
		return nil, err
	}
	sel := &simpoint.Selection{Engine: naiveEngine, Result: res, Strata: make([]simpoint.Stratum, res.K)}
	for i, j := range res.Assign {
		sel.Strata[j].Members = append(sel.Strata[j].Members, i)
		sel.Strata[j].Work += weights[i]
	}
	var total float64
	for _, st := range sel.Strata {
		total += st.Work
	}
	for h := range sel.Strata {
		if total > 0 {
			sel.Strata[h].Weight = sel.Strata[h].Work / total
		} else {
			sel.Strata[h].Weight = float64(len(sel.Strata[h].Members)) / float64(len(vectors))
		}
	}
	for j, rep := range res.Reps {
		sel.Strata[j].Sampled = 1
		sel.Regions = append(sel.Regions, simpoint.SelectedRegion{Index: rep, Stratum: j, Weight: sel.Strata[j].Weight})
	}
	sort.Slice(sel.Regions, func(a, b int) bool { return sel.Regions[a].Index < sel.Regions[b].Index })
	return sel, nil
}

// TestPipelineSelectionMatchesNaiveReferences holds core.Select to the
// clustering oracles, on the analyses core's TestFastSlowPathsByteIdentical
// holds to theirs: the naive projection (ProjectRegionsSlow /
// SumProjectRegionsSlow) must equal the one Select clusters, and the
// selection Select draws — Select("simpoint", …) on that projection —
// must equal naiveMedoid's on clustering, strata and draws. core.Select
// derives looppoints and multipliers from that selection, the regions
// and the projection alone, so equal inputs pin those too.
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
			if len(got.Points) == 0 {
				t.Fatal("no looppoints selected")
			}

			prof, seed := a.Profile, a.Config.Seed
			slow, fast := simpoint.ProjectRegionsSlow, simpoint.ProjectRegionsN
			if cfg.SumBBVs {
				slow, fast = simpoint.SumProjectRegionsSlow, simpoint.SumProjectRegionsN
			}
			vectors := slow(prof.Regions, prof.NumBlocks, simpoint.DefaultDims, seed)
			if !reflect.DeepEqual(vectors, fast(prof.Regions, prof.NumBlocks, simpoint.DefaultDims, seed, a.Config.ClusterWorkers)) {
				t.Fatal("the projection Select clusters differs from the naive projection")
			}
			weights := make([]float64, len(prof.Regions))
			for i, r := range prof.Regions {
				weights[i] = float64(r.Filtered)
			}
			want, err := naiveMedoid(vectors, weights, simpoint.Options{
				MaxK: a.Config.MaxK, Seed: seed, Workers: a.Config.ClusterWorkers,
			})
			if err != nil {
				t.Fatal(err)
			}
			want.Engine = got.Sample.Engine // the one field the engine name sets

			if !reflect.DeepEqual(got.Sample.Result, want.Result) {
				t.Error("clustering Result differs from the naive projection + k-means sweep")
			}
			if !reflect.DeepEqual(got.Sample, want) {
				t.Error("strata and draws differ from the naive medoid rule")
			}
		})
	}
}
