// Command lpreport regenerates the paper's evaluation: every figure
// (1, 3, 4, 5a, 5b, 6, 7, 8, 9, 10), the configuration and workload
// tables (I–III), the Section II naive-SimPoint and Section V-A1
// constrained-replay measurements, and the design-choice ablations.
//
//	lpreport -quick                  # representative subset, minutes
//	lpreport                         # full suites (much longer)
//	lpreport -figures 5a,8,9         # selected experiments only
//	lpreport -out results/           # also write per-figure text files
//	lpreport -quick -j 8             # 8 evaluation workers, same output
//
// The -j flag bounds the worker pool that experiments fan out on — and,
// within each evaluation, the clustering stage's BBV projections and
// k=1..maxK BIC sweep; reports are byte-identical at every -j setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"looppoint/internal/faults"
	"looppoint/internal/harness"
	"looppoint/internal/prof"
	"looppoint/internal/simpoint"
	"looppoint/internal/workloads"
)

type experiment struct {
	name string
	run  func(e *harness.Evaluator) (string, error)
}

func main() {
	var (
		quick     = flag.Bool("quick", false, "use representative workload subsets")
		figures   = flag.String("figures", "all", "comma-separated experiments: tables,1,3,4,5a,5b,6,7,8,9,10,naive,constrained,hybrid,engines,ablations or all")
		outDir    = flag.String("out", "", "directory to also write per-figure text files into")
		threads   = flag.Int("n", 8, "SPEC thread count")
		jobs      = flag.Int("j", 0, "worker-pool width for parallel evaluation (0 = one worker per CPU); output is identical at every setting")
		input     = flag.String("input", "", "override every experiment's input class (e.g. test) — smoke runs only")
		slice     = flag.Uint64("slice", 0, "override the per-thread slice unit (0 = default)")
		verbose   = flag.Bool("v", false, "log per-application progress")
		resume    = flag.String("resume", "", "store completed evaluations in this directory and skip ones already stored — a killed run restarts where it stopped")
		selector  = flag.String("selector", "", "selection engine for every experiment: "+strings.Join(simpoint.SelectorNames(), ", ")+" (default simpoint); the engines experiment always sweeps all of them")
		budget    = flag.Int("budget", 0, "stratified engine: total region draw budget (0 = 2x cluster count)")
		confid    = flag.Float64("confidence", 0, "confidence level for extrapolated intervals (0 = 0.95)")
		pprofCPU  = flag.String("pprof-cpu", "", "write a CPU profile to this file")
		pprofHeap = flag.String("pprof-heap", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	// FAULTS_PLAN/FAULTS_SEED inject deterministic faults without
	// recompiling (see internal/faults).
	if plan, err := faults.FromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "lpreport: %v\n", err)
		os.Exit(1)
	} else if plan != nil {
		faults.Enable(plan)
	}

	stopProf, err := prof.Start(*pprofCPU, *pprofHeap)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lpreport: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	opts := harness.Options{
		Quick:         *quick,
		Threads:       *threads,
		Parallelism:   *jobs,
		SliceUnit:     *slice,
		InputOverride: workloads.InputClass(*input),
		Resume:        *resume,
		Selector:      *selector,
		SampleBudget:  *budget,
		Confidence:    *confid,
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	e := harness.NewEvaluator(opts)
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}

	exps := []experiment{
		{"tables", func(e *harness.Evaluator) (string, error) {
			return harness.TableI() + "\n" + harness.TableII() + "\n" + harness.TableIII(), nil
		}},
		{"1", wrap(e.Fig1)},
		{"3", wrap(e.Fig3)},
		{"4", wrap(e.Fig4)},
		{"5a", wrap(e.Fig5a)},
		{"5b", wrap(e.Fig5b)},
		{"6", wrap(e.Fig6)},
		{"7", wrap(e.Fig7)},
		{"8", wrap(e.Fig8)},
		{"9", wrap(e.Fig9)},
		{"10", wrap(e.Fig10)},
		{"naive", wrap(e.NaiveSimPoint)},
		{"constrained", wrap(e.Constrained)},
		{"hybrid", wrap(e.Hybrid)},
		{"engines", func(e *harness.Evaluator) (string, error) {
			res, err := e.Engines(nil)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"ablations", runAblations},
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*figures, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]

	for _, exp := range exps {
		if !all && !want[exp.name] {
			continue
		}
		logf("stage %s: starting (j=%d)", exp.name, e.Opts.Parallelism)
		start := time.Now()
		out, err := exp.run(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpreport: %s: %v\n", exp.name, err)
			os.Exit(1)
		}
		logf("stage %s: done in %v", exp.name, time.Since(start).Round(time.Millisecond))
		fmt.Printf("%s\n[%s took %v]\n\n", out, exp.name, time.Since(start).Round(time.Millisecond))
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, "fig"+exp.name+".txt")
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

type renderer interface{ Render() string }

// wrap adapts a figure function to the experiment signature.
func wrap[T renderer](fn func() (T, error)) func(*harness.Evaluator) (string, error) {
	return func(*harness.Evaluator) (string, error) {
		res, err := fn()
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}
}

func runAblations(e *harness.Evaluator) (string, error) {
	var b strings.Builder
	for _, fn := range []func() (*harness.AblationResult, error){
		e.AblationSpinFilter,
		e.AblationGlobalBBV,
		e.AblationFlowControl,
		e.AblationSliceSize,
		e.AblationMaxK,
		e.AblationWarmup,
		e.AblationPrefetcher,
		e.AblationVariableSlices,
	} {
		res, err := fn()
		if err != nil {
			return "", err
		}
		b.WriteString(res.Render())
		b.WriteByte('\n')
	}
	return b.String(), nil
}
