package core

import (
	"reflect"
	"testing"

	"looppoint/internal/omp"
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
		if !reflect.DeepEqual(base.Sample.Result, sel.Sample.Result) {
			t.Errorf("workers=%d: clustering Result differs from workers=1", workers)
		}
		if !reflect.DeepEqual(base.Points, sel.Points) {
			t.Errorf("workers=%d: looppoint selection differs from workers=1", workers)
		}
	}
}

// TestFastSlowPathsByteIdentical holds the analysis to the layer oracles.
// No flag selects a reference engine; the expected side is composed here
// from the references themselves — a bare recording, a DCFG builder and a
// Collector each driven one instruction at a time through a replay of it
// (referenceAnalysis) — and Analyze must equal it on graph,
// loops, markers and profile. The selection half (the naive projection and
// k-means sweep behind a hand-rolled medoid engine, against Select) lives
// beside those references, in simpoint's pipeline_test.go. Region
// simulation has one loop and no oracle; timing's TestStatsGolden pins it.
func TestFastSlowPathsByteIdentical(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	configs := identityConfigs()
	configs["sumbbvs"] = func(c *Config) { c.SumBBVs = true }
	for name, mutate := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			mutate(&cfg)
			want := referenceAnalysis(t, p, cfg)
			got, err := Analyze(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			analysisEquals(t, "pipeline vs oracles", got, want)
		})
	}
}
