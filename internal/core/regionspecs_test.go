package core_test

import (
	"bytes"
	"os"
	"testing"

	"looppoint"
	"looppoint/internal/core"
	"looppoint/internal/timing"
)

// TestExportedPinballsAreTheSimulatedCheckpoints: the files
// `lpprofile -save-regions` writes (looppoint.ExportRegionPinballs) are
// byte for byte the checkpoints the in-process sweep simulates, whatever
// the warm-up configuration — so `lpsim -checkpoint` on a shared file
// measures the region `looppoint`, `lpreport` and `lpserved` measure.
// The warm-up length is also checked against the rule itself, so the two
// cannot agree on a wrong one.
func TestExportedPinballsAreTheSimulatedCheckpoints(t *testing.T) {
	w, err := looppoint.BuildWorkload("644.nab_s.1", looppoint.WorkloadOptions{Threads: 4, Input: "test"})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		mutate func(*core.Config)
		back   int // regions of warm-up before the looppoint
	}{
		"default":         {func(*core.Config) {}, 2},
		"warmupregions-1": {func(c *core.Config) { c.WarmupRegions = 1 }, 1},
		"warmup-none":     {func(c *core.Config) { c.Warmup = timing.WarmupNone }, 0},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := looppoint.DefaultConfig()
			cfg.SliceUnit = 2000
			tc.mutate(&cfg)
			sel, err := looppoint.Analyze(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.ExtractCheckpoints(sel)
			if err != nil {
				t.Fatal(err)
			}
			paths, err := looppoint.ExportRegionPinballs(sel, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != len(want) || len(want) != len(sel.Points) {
				t.Fatalf("%d files, %d checkpoints, %d looppoints", len(paths), len(want), len(sel.Points))
			}
			warmed := false
			for i, path := range paths {
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i].AppendBinary(nil)) {
					t.Errorf("%s differs from the checkpoint the sweep simulates (warm-up %d steps in process)",
						path, want[i].WarmupSteps)
				}
				r := sel.Points[i].Region
				first := r.Index - tc.back
				if first < 0 {
					first = 0
				}
				regions := sel.Analysis.Profile.Regions
				if steps := r.StartICount - regions[first].StartICount; want[i].WarmupSteps != steps {
					t.Errorf("region %d warms over %d steps, want %d (%d regions back)",
						r.Index, want[i].WarmupSteps, steps, tc.back)
				}
				warmed = warmed || r.Index >= 2
			}
			if !warmed {
				t.Fatal("no looppoint lies two regions into the run: the configurations are indistinguishable")
			}
		})
	}
}
