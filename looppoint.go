// Package looppoint is the public entry point of this repository's
// from-scratch Go reproduction of
//
//	Sabu, Patil, Heirman, Carlson.
//	"LoopPoint: Checkpoint-driven Sampled Simulation for Multi-threaded
//	Applications." HPCA 2022.
//
// LoopPoint reduces a long-running multi-threaded application to a small
// set of representative regions ("looppoints") that can be simulated in
// parallel and extrapolated to whole-program performance — independent of
// the synchronization primitives the application uses. The methodology:
//
//  1. Record the application once as a pinball (a deterministic,
//     replayable user-level checkpoint) under a flow-controlled scheduler
//     so every thread makes equal forward progress. This is the only time
//     analysis executes the program.
//  2. Build a dynamic control-flow graph from that run's block-event log,
//     identify loops by dominator analysis, and choose stable worker-loop
//     headers in the main binary as region markers.
//  3. Collect per-thread basic-block vectors from the same log (a
//     crash-resumed job reads the log it saved beside the pinball),
//     slicing at loop entries after every N×SliceUnit filtered
//     instructions (synchronization-library code executes but is never
//     counted). Region boundaries are
//     (PC, count) pairs, valid even under spin-loops.
//  4. Concatenate per-thread BBVs, project to 100 dimensions, cluster
//     with k-means + BIC (maxK = 50), and pick the region nearest each
//     centroid as a looppoint with an Equation-2 work multiplier.
//  5. Simulate each looppoint (unconstrained, with warmup) on the timing
//     model and reconstruct whole-program metrics with Equation 1.
//
// The repository also implements every substrate the paper depends on —
// a mini-ISA with an OpenMP-like runtime, pinball record/replay, a
// Sniper-like multicore timing simulator — plus the baselines it compares
// against (BarrierPoint, naive multi-threaded SimPoint, time-based
// sampling) and a harness regenerating each figure and table of the
// evaluation. See DESIGN.md for the full inventory.
//
// Quick start:
//
//	w, _ := looppoint.BuildWorkload("demo-matrix-1", looppoint.WorkloadOptions{})
//	rep, _ := looppoint.Evaluate(w, looppoint.DefaultConfig(), looppoint.EvalOptions{CompareFull: true})
//	fmt.Println(rep.Summary())
package looppoint

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"looppoint/internal/core"
	"looppoint/internal/harness"
	"looppoint/internal/omp"
	"looppoint/internal/simpoint"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

// Config holds the methodology parameters (slice size, maxK, seed,
// flow-control window, warmup and region-simulation modes). Zero values fall back to the paper's defaults at this
// repository's scale.
type Config = core.Config

// Report is the outcome of an end-to-end evaluation: the selected
// looppoints, their simulations, the extrapolated prediction, and — when
// the full run was simulated — the error figures.
type Report = core.Report

// Selection is a clustered region selection with multipliers.
type Selection = core.Selection

// SimConfig describes the simulated system.
type SimConfig = timing.Config

// WaitPolicy mirrors OMP_WAIT_POLICY.
type WaitPolicy = omp.WaitPolicy

// Wait policies.
const (
	Passive = omp.Passive
	Active  = omp.Active
)

// DefaultConfig returns the paper's parameters (100 K-instruction
// per-thread slices, maxK 50, 100 projected dimensions).
func DefaultConfig() Config { return core.DefaultConfig() }

// Selectors lists the selection engines (Config.Selector): the classic
// "simpoint" medoid rule, the two-phase "stratified" sampler, and the
// "timebased" periodic-sampling baseline.
func Selectors() []string { return simpoint.SelectorNames() }

// Gainestown returns the paper's Table I system configuration for n cores.
func Gainestown(n int) SimConfig { return timing.Gainestown(n) }

// InOrderSystem returns the in-order-core variant used by the
// microarchitecture-portability experiment (Figure 5b).
func InOrderSystem(n int) SimConfig { return timing.InOrderConfig(n) }

// Workload is a buildable benchmark instance.
type Workload struct {
	App *workloads.App
}

// Name returns the workload's registered name.
func (w *Workload) Name() string { return w.App.Spec.Name }

// Threads returns the thread count it was built for.
func (w *Workload) Threads() int { return w.App.Prog.NumThreads() }

// WorkloadOptions parameterize workload construction.
type WorkloadOptions struct {
	// Threads defaults to 8 (xz pins its own counts, as in the paper).
	Threads int
	// Input is "test", "train" or "ref" for SPEC and "A", "C" or "D"
	// for NPB; defaults to train / C.
	Input string
	// Policy is the OpenMP wait policy (default passive).
	Policy WaitPolicy
}

// Workloads lists the registered workload names (SPEC CPU2017 speed
// subset, NPB 3.3, and the demo applications).
func Workloads() []string {
	var names []string
	for _, s := range workloads.All() {
		names = append(names, s.Name)
	}
	return names
}

// BuildWorkload constructs a workload by name.
func BuildWorkload(name string, opts WorkloadOptions) (*Workload, error) {
	spec, ok := workloads.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("looppoint: unknown workload %q (see looppoint.Workloads())", name)
	}
	app, err := spec.Build(workloads.BuildParams{
		Threads: opts.Threads,
		Input:   workloads.InputClass(opts.Input),
		Policy:  opts.Policy,
	})
	if err != nil {
		return nil, err
	}
	return &Workload{App: app}, nil
}

// EvalOptions control an evaluation.
type EvalOptions struct {
	// CompareFull also simulates the entire application in detail to
	// compute prediction errors (skip for ref-scale inputs). At a
	// parallelism of two or more the full run overlaps the analysis and
	// the region sweep, so it costs ≈ max(full, analysis + sweep).
	CompareFull bool
	// Parallelism is the budget of detailed simulations in flight —
	// looppoints and the CompareFull run together (0 = one per CPU; 1 =
	// one simulation at a time, in phase order). The report is
	// byte-identical at every setting; only host time changes.
	Parallelism int
	// System overrides the simulated system (default: Gainestown with
	// one core per thread).
	System *SimConfig
}

// Evaluate runs the complete LoopPoint flow on a workload: analyze,
// select, simulate the looppoints, extrapolate, and optionally compare
// against the full detailed simulation.
func Evaluate(w *Workload, cfg Config, opts EvalOptions) (*Report, error) {
	simCfg := timing.Gainestown(w.Threads())
	if opts.System != nil {
		simCfg = *opts.System
	}
	return core.Run(context.TODO(), w.App.Prog, cfg, simCfg, core.RunOpts{
		SimulateFull: opts.CompareFull,
		Width:        opts.Parallelism,
	})
}

// Analyze performs the up-front analysis and region selection only —
// what the paper calls "where to simulate" — without any timing
// simulation. Useful for ref-scale inputs.
func Analyze(w *Workload, cfg Config) (*Selection, error) {
	a, err := core.Analyze(w.App.Prog, cfg)
	if err != nil {
		return nil, err
	}
	return core.Select(a)
}

// TheoreticalSpeedups returns the instruction-count speedups of a
// selection (serial and parallel, Section V-B).
func TheoreticalSpeedups(sel *Selection) (serial, parallel float64) {
	s := core.ComputeTheoretical(sel)
	return s.TheoreticalSerial, s.TheoreticalParallel
}

// Experiments returns a harness evaluator for regenerating the paper's
// figures programmatically (the lpreport command wraps the same API).
func Experiments(quick bool) *harness.Evaluator {
	return harness.NewEvaluator(harness.Options{Quick: quick})
}

// ExportSelection writes a selection's portable description — markers,
// multipliers, provenance — as JSON (the shareable .Data-directory
// analogue of the paper's artifact).
func ExportSelection(sel *Selection, path string) error {
	return sel.File().SaveJSON(path)
}

// ExportRegionPinballs extracts every looppoint's region checkpoint in
// one replay sweep — cut as the in-process simulation cuts them, warm-up
// prefix included (core.Selection.RegionSpecs) — and writes one .pinball
// file per looppoint into dir, returning the file paths. Another user
// can simulate the files with timing.SimulateCheckpoint or
// `lpsim -checkpoint` without rerunning the analysis.
func ExportRegionPinballs(sel *Selection, dir string) ([]string, error) {
	a := sel.Analysis
	pbs, err := a.Pinball.ExtractRegions(a.Prog, sel.RegionSpecs())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, pb := range pbs {
		path := filepath.Join(dir, pb.Name+".pinball")
		if err := pb.Save(path); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
