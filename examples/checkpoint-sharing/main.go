// checkpoint-sharing: the workflow the paper highlights for pinballs —
// "Checkpoints are easier to share among multiple users than program
// binaries whose execution might require complex setup" (Section II).
// One user profiles an application and exports each looppoint as a
// self-contained region pinball; another user loads the files and
// simulates them (unconstrained, ELFie-style), then extrapolates
// whole-program performance — without ever re-running the analysis.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"looppoint"
	"looppoint/internal/core"
	"looppoint/internal/pinball"
	"looppoint/internal/timing"
)

func main() {
	dir, err := os.MkdirTemp("", "looppoints-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- User A: analyze once, export the sample. ---
	w, err := looppoint.BuildWorkload("619.lbm_s.1", looppoint.WorkloadOptions{Input: "train"})
	if err != nil {
		log.Fatal(err)
	}
	sel, err := looppoint.Analyze(w, looppoint.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	paths, err := looppoint.ExportRegionPinballs(sel, dir)
	if err != nil {
		log.Fatal(err)
	}
	var multipliers []float64
	for _, lp := range sel.Points {
		multipliers = append(multipliers, lp.Multiplier)
	}
	fmt.Printf("user A exported %d looppoint checkpoints to %s\n\n", len(paths), dir)

	// --- User B: load the files and simulate, no analysis needed. ---
	wB, err := looppoint.BuildWorkload("619.lbm_s.1", looppoint.WorkloadOptions{Input: "train"})
	if err != nil {
		log.Fatal(err)
	}
	var results []core.RegionResult
	for i, path := range paths {
		pb, err := pinball.Load(path)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := timing.New(timing.Gainestown(wB.Threads()), wB.App.Prog)
		if err != nil {
			log.Fatal(err)
		}
		st, err := sim.SimulateCheckpoint(pb)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: %7d instrs, %8.0f cycles, IPC %.2f (multiplier %.1f)\n",
			filepath.Base(path), st.Instructions, st.Cycles, st.IPC(), multipliers[i])
		results = append(results, core.RegionResult{
			Point: core.LoopPoint{Multiplier: multipliers[i]},
			Stats: st,
		})
	}
	pred := core.Extrapolate(results, timing.Gainestown(1).FreqGHz)
	fmt.Printf("\nuser B's extrapolated runtime: %.6f s (%.0f cycles)\n", pred.Seconds, pred.Cycles)
}
