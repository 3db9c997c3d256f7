// Command looppoint is the end-to-end driver, mirroring the paper
// artifact's run-looppoint.py: it profiles the selected programs, chooses
// representative regions, launches the region simulations, extrapolates
// whole-program performance, and prints error and speedup numbers.
//
// Usage examples (mirroring the artifact appendix):
//
//	looppoint -p demo-matrix-1 -n 8
//	looppoint -p demo-matrix-2,demo-matrix-3 -w active -i test
//	looppoint -p 603.bwaves_s.1 -i train -w passive
//	looppoint -p 657.xz_s.2 -i ref --no-fullsim
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"looppoint"
)

func main() {
	var (
		programs   = flag.String("p", "demo-matrix-1", "comma-separated programs (<suite>-<application>-<input-num> style names; see -list)")
		ncores     = flag.Int("n", 8, "number of threads/cores")
		inputClass = flag.String("i", "", "input class (test/train/ref for SPEC, A/C/D for NPB; default test for demo, train/C otherwise)")
		waitPolicy = flag.String("w", "passive", "OpenMP wait policy: passive or active")
		noFull     = flag.Bool("no-fullsim", false, "skip the full-application reference simulation (use for ref inputs)")
		serial     = flag.Bool("serial", false, "simulate one at a time in phase order (regions back-to-back, then the full run) instead of in parallel")
		sliceUnit  = flag.Uint64("slice", 0, "per-thread slice unit in instructions (default 100000)")
		maxK       = flag.Int("maxk", 0, "maximum clusters (default 50)")
		selector   = flag.String("selector", "", "selection engine: "+strings.Join(looppoint.Selectors(), ", ")+" (default simpoint)")
		budget     = flag.Int("budget", 0, "stratified engine: total region draw budget (default 2x cluster count)")
		confidence = flag.Float64("confidence", 0, "confidence level for extrapolated intervals, in (0,1) (default 0.95)")
		inorder    = flag.Bool("inorder", false, "simulate on the in-order core model")
		native     = flag.Bool("native", false, "run the application functionally without any sampling or timing (smoke test)")
		list       = flag.Bool("list", false, "list available programs and exit")
		jobs       = flag.Int("j", 0, "worker count for the clustering stage (0 = one worker per CPU); results are byte-identical at every setting")
	)
	flag.Parse()

	if *list {
		for _, n := range looppoint.Workloads() {
			fmt.Println(n)
		}
		return
	}

	var policy looppoint.WaitPolicy = looppoint.Passive
	if *waitPolicy == "active" {
		policy = looppoint.Active
	} else if *waitPolicy != "passive" {
		fatalf("unknown wait policy %q", *waitPolicy)
	}

	cfg := looppoint.DefaultConfig()
	if *sliceUnit != 0 {
		cfg.SliceUnit = *sliceUnit
	}
	if *maxK != 0 {
		cfg.MaxK = *maxK
	}
	cfg.Selector = *selector
	cfg.SampleBudget = *budget
	cfg.Confidence = *confidence
	cfg.ClusterWorkers = *jobs

	for _, name := range strings.Split(*programs, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		input := *inputClass
		if input == "" && strings.HasPrefix(name, "demo-") {
			input = "test"
		}
		w, err := looppoint.BuildWorkload(name, looppoint.WorkloadOptions{
			Threads: *ncores, Input: input, Policy: policy,
		})
		if err != nil {
			fatalf("%v", err)
		}
		if *native {
			fmt.Printf("[%s] built for %d threads; native mode runs no simulation\n", name, w.Threads())
			continue
		}
		opts := looppoint.EvalOptions{CompareFull: !*noFull}
		if *serial {
			opts.Parallelism = 1
		}
		if *inorder {
			sys := looppoint.InOrderSystem(w.Threads())
			opts.System = &sys
		}
		rep, err := looppoint.Evaluate(w, cfg, opts)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		printReport(rep)
	}
}

func printReport(rep *looppoint.Report) {
	fmt.Printf("=== %s ===\n", rep.Name)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	prof := rep.Selection.Analysis.Profile
	fmt.Fprintf(tw, "regions profiled\t%d\n", len(prof.Regions))
	fmt.Fprintf(tw, "looppoints selected\t%d\n", len(rep.Selection.Points))
	fmt.Fprintf(tw, "total instructions\t%d (filtered %d)\n", prof.TotalICount, prof.TotalFiltered)
	fmt.Fprintf(tw, "predicted runtime\t%.6f s (%.0f cycles)\n", rep.Predicted.Seconds, rep.Predicted.Cycles)
	if iv := rep.Intervals; iv != nil {
		fmt.Fprintf(tw, "runtime %.0f%% CI\t%.6f ± %.6f s\n", iv.Level*100, iv.Seconds.Mean, iv.Seconds.HalfWidth)
		fmt.Fprintf(tw, "cycles %.0f%% CI\t%.0f ± %.0f\n", iv.Level*100, iv.Cycles.Mean, iv.Cycles.HalfWidth)
		if rep.Full != nil {
			covered := "outside"
			if iv.Seconds.Covers(rep.Full.RuntimeSeconds()) {
				covered = "inside"
			}
			fmt.Fprintf(tw, "measured vs CI\t%s the interval\n", covered)
		}
	}
	if rep.Full != nil {
		fmt.Fprintf(tw, "measured runtime\t%.6f s\n", rep.Full.RuntimeSeconds())
		fmt.Fprintf(tw, "runtime error\t%.2f %%\n", rep.RuntimeErrPct)
		fmt.Fprintf(tw, "branch MPKI |diff|\t%.3f\n", rep.BranchMPKIDiff)
		fmt.Fprintf(tw, "L2 MPKI |diff|\t%.3f\n", rep.L2MPKIDiff)
		fmt.Fprintf(tw, "actual speedup\t%.1fx serial / %.1fx parallel\n",
			rep.Speedups.ActualSerial, rep.Speedups.ActualParallel)
	}
	fmt.Fprintf(tw, "theoretical speedup\t%.1fx serial / %.1fx parallel\n",
		rep.Speedups.TheoreticalSerial, rep.Speedups.TheoreticalParallel)
	if total := rep.Predicted.Stack.Total(); total > 0 {
		st := rep.Predicted.Stack
		fmt.Fprintf(tw, "predicted CPI stack\tbase %.0f%%, ifetch %.0f%%, mem %.0f%%, branch %.0f%%, compute %.0f%%, sync %.0f%%\n",
			st.Base/total*100, st.Ifetch/total*100, st.Memory/total*100,
			st.Branch/total*100, st.Compute/total*100, st.Sync/total*100)
	}
	tw.Flush()
	fmt.Println("looppoints (region, boundaries, multiplier):")
	for _, lp := range rep.Selection.Points {
		fmt.Printf("  r%-4d %v .. %v  x%.2f (cluster of %d)\n",
			lp.Region.Index, lp.Region.Start, lp.Region.End, lp.Multiplier, lp.ClusterSize)
	}
	fmt.Println()
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "looppoint: "+format+"\n", args...)
	os.Exit(1)
}
