package looppoint

import (
	"context"
	"testing"

	"looppoint/internal/core"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

// TestEveryWorkloadEndToEnd pushes every registered workload — all 14
// SPEC app.inputs, all 9 NPB kernels, and the demos — through the
// complete pipeline (record, DCFG, profile, cluster, extract checkpoints,
// simulate regions, simulate full, extrapolate) at test scale, under both
// wait policies. It is the canary for workload-specific pipeline
// breakage before the expensive full-input benchmark runs.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep skipped in -short mode")
	}
	cfg := core.DefaultConfig()
	cfg.SliceUnit = 4000
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, policy := range []WaitPolicy{Passive, Active} {
				input := workloads.InputTest
				if spec.Suite == "npb" {
					input = workloads.ClassA
				}
				app, err := spec.Build(workloads.BuildParams{Input: input, Policy: policy})
				if err != nil {
					t.Fatalf("%v: build: %v", policy, err)
				}
				rep, err := core.Run(context.Background(), app.Prog, cfg, timing.Gainestown(app.Prog.NumThreads()),
					core.RunOpts{SimulateFull: true})
				if err != nil {
					t.Fatalf("%v: run: %v", policy, err)
				}
				if rep.RuntimeErrPct > 35 {
					t.Errorf("%v: runtime error %.2f%% implausibly high at test scale (%s)",
						policy, rep.RuntimeErrPct, rep.Summary())
				}
				if len(rep.Selection.Points) == 0 {
					t.Errorf("%v: no looppoints", policy)
				}
			}
		})
	}
}
