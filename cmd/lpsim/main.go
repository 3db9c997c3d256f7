// Command lpsim runs the timing simulator directly: a fully detailed
// simulation of a workload, a single (PC, count)-delimited region, or
// saved region checkpoints, on the Gainestown-like out-of-order model or
// the in-order model. It is the "how to simulate" half of the
// methodology, exposed for experimentation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"looppoint"
	"looppoint/internal/bbv"
	"looppoint/internal/pinball"
	"looppoint/internal/pool"
	"looppoint/internal/prof"
	"looppoint/internal/stats"
	"looppoint/internal/timing"
)

func main() {
	var (
		program    = flag.String("p", "demo-matrix-1", "program to simulate")
		ncores     = flag.Int("n", 8, "number of threads/cores")
		inputClass = flag.String("i", "", "input class")
		waitPolicy = flag.String("w", "passive", "wait policy: passive or active")
		inorder    = flag.Bool("inorder", false, "use the in-order core model")
		start      = flag.String("start", "", "region start marker as pc:count (hex pc ok); empty = program start")
		end        = flag.String("end", "", "region end marker as pc:count; empty = program end")
		cold       = flag.Bool("cold", false, "skip functional warmup for region simulation")
		trace      = flag.Uint64("trace", 0, "emit an IPC trace sampled every N instructions")
		checkpoint = flag.String("checkpoint", "", "simulate a saved region pinball, or every *.pinball in a directory (from lpprofile -save-regions); build flags must match the profiling run")
		jobs       = flag.Int("j", 0, "worker-pool width for directory checkpoint simulation (0 = one worker per CPU)")
		constrain  = flag.Bool("constrained", false, "with -checkpoint: constrained replay instead of unconstrained simulation")
		minCov     = flag.Float64("min-coverage", 1.0, "directory mode: minimum fraction of checkpoints that must simulate; bad pinballs are quarantined and the rest continue, but falling below this exits nonzero")
		confid     = flag.Float64("confidence", 0.95, "directory mode: level for the across-checkpoint IPC confidence interval")
		pprofCPU   = flag.String("pprof-cpu", "", "write a CPU profile to this file")
		pprofHeap  = flag.String("pprof-heap", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*pprofCPU, *pprofHeap)
	if err != nil {
		fail(err)
	}
	defer stopProf()

	policy := looppoint.Passive
	if *waitPolicy == "active" {
		policy = looppoint.Active
	}
	w, err := looppoint.BuildWorkload(*program, looppoint.WorkloadOptions{
		Threads: *ncores, Input: *inputClass, Policy: policy,
	})
	if err != nil {
		fail(err)
	}
	cfg := timing.Gainestown(w.Threads())
	if *inorder {
		cfg = timing.InOrderConfig(w.Threads())
	}
	sim, err := timing.New(cfg, w.App.Prog)
	if err != nil {
		fail(err)
	}
	if *trace > 0 {
		sim.Trace = timing.NewIPCTrace(*trace)
	}

	var st *timing.Stats
	switch {
	case *checkpoint != "":
		if fi, err := os.Stat(*checkpoint); err == nil && fi.IsDir() {
			simulateCheckpointDir(w, cfg, *checkpoint, dirOpts{
				jobs: *jobs, constrain: *constrain, minCoverage: *minCov,
				confidence: *confid,
			})
			return
		}
		pb, err := pinball.Load(*checkpoint)
		if err != nil {
			fail(err)
		}
		if pb.NumThreads != w.Threads() {
			fail(fmt.Errorf("checkpoint recorded with %d threads, program built with %d; pass matching -p/-n/-i/-w flags",
				pb.NumThreads, w.Threads()))
		}
		if *constrain {
			st, err = sim.SimulateConstrained(pb)
		} else {
			st, err = sim.SimulateCheckpoint(pb)
		}
		if err != nil {
			fail(err)
		}
	default:
		startM, err := parseMarker(*start, bbv.Marker{})
		if err != nil {
			fail(err)
		}
		endM, err := parseMarker(*end, bbv.Marker{IsEnd: true})
		if err != nil {
			fail(err)
		}
		warm := timing.WarmupFunctional
		if *cold {
			warm = timing.WarmupNone
		}
		st, err = sim.SimulateRegion(startM, endM, warm)
		if err != nil {
			fail(err)
		}
	}

	printStats(w.Name(), cfg, st, sim.Trace)
}

// dirOpts bundles the directory-mode knobs.
type dirOpts struct {
	jobs        int
	constrain   bool
	minCoverage float64
	confidence  float64
}

// simulateCheckpointDir simulates every region pinball in dir on a
// bounded worker pool — the checkpoint-driven parallel simulation of
// Section III-J: checkpoints make the regions independent, so they can
// be farmed out to as many workers as the host offers. Per-file lines
// print in name order regardless of which worker finished first.
//
// The sweep is fault-tolerant: a pinball that fails to load or simulate
// is quarantined — reported and skipped — and the remaining checkpoints
// still complete. The exit status is nonzero only when the surviving
// fraction falls below -min-coverage.
func simulateCheckpointDir(w *looppoint.Workload, cfg timing.Config, dir string, opts dirOpts) {
	files, err := filepath.Glob(filepath.Join(dir, "*.pinball"))
	if err != nil {
		fail(err)
	}
	if len(files) == 0 {
		fail(fmt.Errorf("no *.pinball files in %s", dir))
	}
	sort.Strings(files)
	width := opts.jobs
	if width <= 0 {
		width = pool.DefaultWidth()
	}
	fmt.Fprintf(os.Stderr, "lpsim: simulating %d checkpoints with %d workers\n", len(files), width)

	type regionRun struct {
		st   *timing.Stats
		host time.Duration
	}
	wall := time.Now()

	// Stage 1: load every pinball concurrently on the same worker width
	// (decode is CPU work worth parallelizing since the slab fast path).
	// A pinball that fails to load is quarantined here and skipped by the
	// simulate stage; results stay index-ordered, so reports print in name
	// order no matter which worker finished first.
	type loaded struct {
		pb   *pinball.Pinball
		host time.Duration
	}
	pbs, loadErrs := quarantine(width, len(files), func(i int) (loaded, error) {
		start := time.Now()
		pb, err := pinball.Load(files[i])
		if err != nil {
			return loaded{}, err
		}
		if pb.NumThreads != w.Threads() {
			return loaded{}, fmt.Errorf("%s: recorded with %d threads, program built with %d",
				files[i], pb.NumThreads, w.Threads())
		}
		return loaded{pb: pb, host: time.Since(start)}, nil
	})

	// Stage 2: simulate the surviving checkpoints. Every simulation
	// takes its timing system from the timing package's pool, so only
	// the first regions in flight pay for building one; the identity
	// tests pin pooled reports byte-identical to fresh construction.
	runs, errs := quarantine(width, len(files), func(i int) (regionRun, error) {
		if loadErrs[i] != nil {
			return regionRun{}, loadErrs[i]
		}
		start := time.Now()
		sim, err := timing.New(cfg, w.App.Prog)
		if err != nil {
			return regionRun{}, err
		}
		var st *timing.Stats
		if opts.constrain {
			st, err = sim.SimulateConstrained(pbs[i].pb)
		} else {
			st, err = sim.SimulateCheckpoint(pbs[i].pb)
		}
		if err != nil {
			return regionRun{}, fmt.Errorf("%s: %w", files[i], err)
		}
		return regionRun{st: st, host: pbs[i].host + time.Since(start)}, nil
	})
	elapsed := time.Since(wall)

	var serial time.Duration
	var insns uint64
	var cycles, seconds float64
	var quarantined int
	var ipcs []float64
	for i, r := range runs {
		if errs[i] != nil {
			quarantined++
			printQuarantined(os.Stdout, os.Stderr, filepath.Base(files[i]), errs[i])
			continue
		}
		serial += r.host
		insns += r.st.Instructions
		cycles += r.st.Cycles
		seconds += r.st.RuntimeSeconds()
		ipcs = append(ipcs, r.st.IPC())
		fmt.Printf("%-32s %12d insns  IPC %6.3f  runtime %.6f s  [host %v]\n",
			filepath.Base(files[i]), r.st.Instructions, r.st.IPC(),
			r.st.RuntimeSeconds(), r.host.Round(time.Millisecond))
	}
	fmt.Printf("\n%d checkpoints of %s on %d-core %v system, %d workers:\n",
		len(runs)-quarantined, w.Name(), cfg.Cores, cfg.Kind, width)
	fmt.Printf("  instructions   %d\n", insns)
	fmt.Printf("  cycles         %.0f\n", cycles)
	fmt.Printf("  region runtime %.6f s @ %.2f GHz (summed)\n", seconds, cfg.FreqGHz)
	if len(ipcs) >= 2 && opts.confidence > 0 && opts.confidence < 1 {
		iv := stats.MeanInterval(ipcs, opts.confidence)
		fmt.Printf("  IPC per ckpt   %.3f ± %.3f (%.0f%% CI over %d checkpoints)\n",
			iv.Mean, iv.HalfWidth, opts.confidence*100, len(ipcs))
	}
	if elapsed > 0 {
		fmt.Printf("  host wall      %v (serial-equivalent %v, speedup %.2fx)\n",
			elapsed.Round(time.Millisecond), serial.Round(time.Millisecond),
			float64(serial)/float64(elapsed))
	}
	if quarantined > 0 {
		coverage := float64(len(files)-quarantined) / float64(len(files))
		fmt.Printf("  quarantined    %d of %d checkpoints (coverage %.1f%%)\n",
			quarantined, len(files), coverage*100)
		if coverage < opts.minCoverage {
			fail(fmt.Errorf("coverage %.1f%% below -min-coverage %.1f%%",
				coverage*100, opts.minCoverage*100))
		}
	}
}

// quarantine runs fn for every index in [0, n) on width workers and keeps
// each item's error apart, so one bad checkpoint never stops the sweep:
// every item runs, a failed one leaves its zero value, and a panic in fn
// is that item's *pool.PanicError. Results come back in index order.
func quarantine[T any](width, n int, fn func(i int) (T, error)) ([]T, []error) {
	errs := make([]error, n)
	out, _ := pool.Map(context.Background(), width, n, func(_ context.Context, i int) (T, error) {
		v, err := pool.Protect(func() (T, error) { return fn(i) })
		errs[i] = err
		return v, nil // never fails: the sweep is not cancelled
	})
	return out, errs
}

// printQuarantined prints a quarantined checkpoint's one report line to
// out. A panic's line carries only its value; the stack goes to errw, so
// the name-ordered per-file lines stay one per file.
func printQuarantined(out, errw io.Writer, name string, err error) {
	var pe *pool.PanicError
	if errors.As(err, &pe) {
		fmt.Fprintf(errw, "lpsim: %s panicked: %v\n%s", name, pe.Value, pe.Stack)
		err = fmt.Errorf("panic: %v", pe.Value)
	}
	fmt.Fprintf(out, "%-32s QUARANTINED: %v\n", name, err)
}

func printStats(label string, cfg timing.Config, st *timing.Stats, trace *timing.IPCTrace) {
	fmt.Printf("%s on %d-core %v system:\n", label, cfg.Cores, cfg.Kind)
	fmt.Printf("  instructions  %d\n", st.Instructions)
	fmt.Printf("  cycles        %.0f\n", st.Cycles)
	fmt.Printf("  runtime       %.6f s @ %.2f GHz\n", st.RuntimeSeconds(), cfg.FreqGHz)
	fmt.Printf("  IPC           %.3f\n", st.IPC())
	fmt.Printf("  branch MPKI   %.3f (%d/%d)\n", st.BranchMPKI(), st.BranchMisses, st.Branches)
	fmt.Printf("  L1D MPKI      %.3f\n", st.L1DMPKI())
	fmt.Printf("  L2 MPKI       %.3f\n", st.L2MPKI())
	fmt.Printf("  L3 MPKI       %.3f\n", st.L3MPKI())
	fmt.Printf("  coherence inv %d, futex waits %d\n", st.CoherenceInvalidations, st.FutexWaits)
	if total := st.Stack.Total(); total > 0 {
		fmt.Println("  CPI stack (share of core-busy cycles):")
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"base", st.Stack.Base}, {"ifetch", st.Stack.Ifetch},
			{"memory", st.Stack.Memory}, {"branch", st.Stack.Branch},
			{"compute", st.Stack.Compute}, {"sync", st.Stack.Sync},
		} {
			fmt.Printf("    %-8s %6.2f%%\n", c.name, c.v/total*100)
		}
	}
	if trace != nil {
		fmt.Println("IPC trace:")
		for _, s := range trace.Samples {
			fmt.Printf("  %12d %8.0f %.3f\n", s.Instructions, s.Cycles, s.IPC)
		}
	}
}

func parseMarker(s string, def bbv.Marker) (bbv.Marker, error) {
	if s == "" {
		return def, nil
	}
	pc, count, err := parsePair(s)
	if err != nil {
		return bbv.Marker{}, err
	}
	return bbv.Marker{PC: pc, Count: count}, nil
}

func parsePair(s string) (uint64, uint64, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want a:b, got %q", s)
	}
	a, err := strconv.ParseUint(strings.TrimPrefix(parts[0], "0x"), pickBase(parts[0]), 64)
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

func pickBase(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "lpsim: %v\n", err)
	os.Exit(1)
}
