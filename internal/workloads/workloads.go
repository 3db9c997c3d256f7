// Package workloads provides the synthetic benchmark suites standing in
// for SPEC CPU2017 (speed, OpenMP subset) and the NAS Parallel Benchmarks
// (paper Section IV-B). Each application is generated as a mini-ISA
// program whose phase structure, synchronization-primitive mix
// (Table III), thread heterogeneity, and input-size scaling mirror its
// namesake at a reduced scale: all instruction counts are divided by
// roughly Scale relative to the real suites, which preserves every ratio
// the evaluation depends on (region/application size, train/ref growth,
// speedups) while keeping full-application simulation runnable in
// seconds.
package workloads

import (
	"fmt"
	"sort"

	"looppoint/internal/isa"
	"looppoint/internal/kernels"
	"looppoint/internal/omp"
)

// Scale is the approximate instruction-count reduction of this suite
// versus the real benchmarks (the paper slices at N×100 M instructions;
// this repository slices at N×100 K).
const Scale = 1000

// InputClass selects the input size.
type InputClass string

// SPEC input classes and NPB problem classes.
const (
	InputTest  InputClass = "test"
	InputTrain InputClass = "train"
	InputRef   InputClass = "ref"
	ClassA     InputClass = "A"
	ClassC     InputClass = "C"
	ClassD     InputClass = "D"
)

// inputScales maps every input class to its (timestep, size)
// multipliers. The ratios mirror the paper's regimes at 1/Scale: train
// runs are big enough to slice into tens of regions at the default
// N×100 K slice target, and ref runs are roughly an order of magnitude
// beyond train — large enough that full detailed simulation is the
// bottleneck, the regime where Figure 1/9 live.
var inputScales = map[InputClass][2]int64{
	InputTest: {1, 1}, InputTrain: {8, 4}, InputRef: {40, 8},
	ClassA: {1, 1}, ClassC: {20, 8}, ClassD: {48, 12},
}

// Check rejects a name that is not an input class. Spec.Build applies
// it, so no workload is ever built at a size nobody asked for.
func (in InputClass) Check() error {
	if _, ok := inputScales[in]; !ok {
		return fmt.Errorf("workloads: unknown input class %q (want test, train, ref, A, C or D)", in)
	}
	return nil
}

// scale returns (timestep multiplier, size multiplier) for a class
// Spec.Build has checked.
func (in InputClass) scale() (int64, int64) {
	s := inputScales[in]
	return s[0], s[1]
}

// SyncSet records which synchronization primitives an application uses
// (Table III). sta4 = static for, dyn4 = dynamic for, bar = barrier,
// ma = master, si = single, red = reduction, at = atomic, lck = lock.
type SyncSet struct {
	Sta4, Dyn4, Bar, Ma, Si, Red, At, Lck bool
}

// BuildParams parameterizes application construction.
type BuildParams struct {
	Threads int
	Input   InputClass
	Policy  omp.WaitPolicy
}

// App is a generated application ready to run.
type App struct {
	Spec    Spec
	Prog    *isa.Program
	Runtime *omp.Runtime
	Params  BuildParams
}

// Spec describes one benchmark (Table II attributes plus builder).
type Spec struct {
	Name  string
	Suite string // "spec17" or "npb" or "demo"
	Lang  string
	KLOC  int
	Area  string
	Sync  SyncSet
	// FixedThreads pins the thread count regardless of BuildParams
	// (657.xz_s.1 is single-threaded, 657.xz_s.2 runs 4 threads).
	FixedThreads int
	build        func(par BuildParams) *App
}

// Build constructs the application. Threads defaults to 8 and is
// overridden by FixedThreads; Input defaults per suite, and any other
// class name is rejected (InputClass.Check).
func (s Spec) Build(par BuildParams) (*App, error) {
	if s.build == nil {
		return nil, fmt.Errorf("workloads: %s has no builder", s.Name)
	}
	if par.Threads == 0 {
		par.Threads = 8
	}
	if s.FixedThreads != 0 {
		par.Threads = s.FixedThreads
	}
	if par.Input == "" {
		if s.Suite == "npb" {
			par.Input = ClassC
		} else {
			par.Input = InputTrain
		}
	}
	if err := par.Input.Check(); err != nil {
		return nil, err
	}
	app := s.build(par)
	app.Spec = s
	app.Params = par
	return app, nil
}

var registry []Spec

func register(s Spec) { registry = append(registry, s) }

// SpecSuite returns the SPEC CPU2017 speed workloads in paper order.
func SpecSuite() []Spec { return bySuite("spec17") }

// NPBSuite returns the NAS Parallel Benchmarks workloads.
func NPBSuite() []Spec { return bySuite("npb") }

// All returns every registered workload.
func All() []Spec {
	out := append([]Spec(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return false // preserve registration order within a suite
	})
	return out
}

func bySuite(suite string) []Spec {
	var out []Spec
	for _, s := range registry {
		if s.Suite == suite {
			out = append(out, s)
		}
	}
	return out
}

// Lookup finds a workload by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// frame is the shared skeleton of all generated applications: N threads
// executing one thread_main routine with an outer timestep loop whose
// header is a stable region marker; phases and synchronization are
// emitted between the loop head and latch.
type frame struct {
	p     *isa.Program
	rt    *omp.Runtime
	main  *isa.Image
	r     *isa.Routine
	e     *kernels.Emitter
	bar   uint64
	steps int64

	stepHead *isa.Block
	stepReg  isa.Reg
}

func newFrame(name string, par BuildParams, steps int64) *frame {
	p := isa.NewProgram(name, par.Threads)
	main := p.AddImage("main", false)
	rt := omp.New(p, par.Policy)
	r := main.NewRoutine("thread_main")
	entry := r.NewBlock("entry")
	f := &frame{
		p: p, rt: rt, main: main, r: r,
		e:       kernels.NewEmitter(p, r, entry),
		bar:     rt.NewBarrier("step"),
		steps:   steps,
		stepReg: 15,
	}
	return f
}

// initArray schedules a thread-0 data initialization before the timestep
// loop starts (followed by a barrier so every thread sees it).
func (f *frame) initArray(arr uint64, n, mult, modv, addv int64) {
	f.e.SeededInit(arr, n, mult, modv, addv)
}

// beginSteps closes initialization (with a barrier) and opens the
// timestep loop.
func (f *frame) beginSteps() {
	f.rt.EmitBarrier(f.e.Cur, f.bar)
	f.openStepLoop()
}

// beginStepsGated is beginSteps for barrier-free applications (657.xz_s):
// workers wait on a one-shot start gate — the thread-spawn sync of a
// pthread program — which barrier-based samplers do not see.
func (f *frame) beginStepsGated() {
	gate := f.rt.NewGate("start")
	master := f.e.NewBlock("gate_open")
	wait := f.e.NewBlock("gate_wait")
	joined := f.e.NewBlock("gate_joined")
	f.e.Cur.BrCondI(isa.CondEQ, isa.RegTid, 0, master, wait)
	f.rt.EmitGateOpen(master, gate)
	master.Br(joined)
	f.rt.EmitGateWait(wait, gate)
	wait.Br(joined)
	f.e.Cur = joined
	f.openStepLoop()
}

func (f *frame) openStepLoop() {
	f.e.Cur.IMovI(f.stepReg, 0)
	f.stepHead = f.e.NewBlock("timestep")
	f.e.Cur.Br(f.stepHead)
	f.e.Cur = f.stepHead
}

// barrier emits a global barrier at the current point.
func (f *frame) barrier() { f.rt.EmitBarrier(f.e.Cur, f.bar) }

// equal returns an equal partition with fixed-problem-size semantics:
// ref8 is the per-thread iteration count at the reference 8-thread
// configuration; other thread counts divide the same total work (SPEC
// speed runs and NPB classes fix the problem, not the per-thread share).
func (f *frame) equal(ref8 int64) kernels.Partition {
	n := ref8 * 8 / int64(f.p.NumThreads())
	if n < 1 {
		n = 1
	}
	return kernels.Equal(n)
}

// skewed is equal's counterpart for deliberately imbalanced partitions.
func (f *frame) skewed(base8, skew8 int64) kernels.Partition {
	scale := func(v int64) int64 {
		n := v * 8 / int64(f.p.NumThreads())
		if n < 1 {
			n = 1
		}
		return n
	}
	return kernels.Skewed(scale(base8), scale(skew8))
}

// singleOnce emits an OpenMP `single` construct (nowait): exactly one
// thread per timestep executes the body — whichever wins the
// compare-and-swap on the episode cell, which holds the current timestep
// number. No reset is needed because the expected value advances with
// the timestep register.
func (f *frame) singleOnce(cell uint64, body func()) {
	b := f.e.Cur
	win := f.e.NewBlock("single_win")
	cont := f.e.NewBlock("single_done")
	b.IMovI(9, int64(cell))
	b.IOpI(isa.OpIAdd, 10, f.stepReg, 1) // new value (goes in Dst)
	b.IMov(11, f.stepReg)                // expected value
	b.CmpXchg(10, 9, 0, 11)
	b.BrCondI(isa.CondEQ, 10, 1, win, cont)
	f.e.Cur = win
	body()
	f.e.Cur.Br(cont)
	f.e.Cur = cont
}

// masterOnly emits body for thread 0 only (OpenMP master), without an
// implied barrier.
func (f *frame) masterOnly(body func()) {
	m := f.e.NewBlock("master")
	cont := f.e.NewBlock("master_done")
	f.e.Cur.BrCondI(isa.CondEQ, isa.RegTid, 0, m, cont)
	f.e.Cur = m
	body()
	f.e.Cur.Br(cont)
	f.e.Cur = cont
}

// finish emits the loop latch and halt, links the program.
func (f *frame) finish() *App {
	latch := f.e.NewBlock("latch")
	done := f.e.NewBlock("done")
	f.e.Cur.Br(latch)
	latch.IOpI(isa.OpIAdd, f.stepReg, f.stepReg, 1)
	latch.BrCondI(isa.CondLT, f.stepReg, f.steps, f.stepHead, done)
	done.Halt()
	for tid := 0; tid < f.p.NumThreads(); tid++ {
		f.p.SetEntry(tid, f.r)
	}
	if err := f.p.Link(); err != nil {
		panic(fmt.Sprintf("workloads: %s: %v", f.p.Name, err))
	}
	return &App{Prog: f.p, Runtime: f.rt}
}
