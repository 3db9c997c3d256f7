// Package testprog builds small mini-ISA programs used by tests across
// the repository: multi-phase OpenMP-style kernels with barriers, locks,
// and heterogeneous thread behaviour. Production workloads live in
// internal/workloads; these are deliberately tiny.
package testprog

import (
	"fmt"

	"looppoint/internal/isa"
	"looppoint/internal/omp"
)

// Phased builds an nthreads-thread program with two distinct compute
// phases separated by barriers, repeated for timesteps iterations. All
// threads run the same routine (as compiled OpenMP code would),
// parameterized by the tid register, so loop-header PCs are shared.
// Phase 1 is integer stores, phase 2 float FMAs; the outer timestep loop
// header is a natural region marker.
func Phased(nthreads int, timesteps, iters int64, policy omp.WaitPolicy) *isa.Program {
	p, _ := PhasedWithRuntime(nthreads, timesteps, iters, policy)
	return p
}

// PhasedWithRuntime is Phased, also returning the threading runtime so
// callers can reach runtime metadata such as the barrier-release marker.
func PhasedWithRuntime(nthreads int, timesteps, iters int64, policy omp.WaitPolicy) (*isa.Program, *omp.Runtime) {
	p := isa.NewProgram(fmt.Sprintf("phased-%dt", nthreads), nthreads)
	arr := p.Alloc("arr", uint64(nthreads)*uint64(iters))
	main := p.AddImage("main", false)
	rt := omp.New(p, policy)
	bar := rt.NewBarrier("step")

	r := main.NewRoutine("thread_main")
	entry := r.NewBlock("entry")
	step := r.NewBlock("timestep")
	l1 := r.NewBlock("phase1_loop")
	mid := r.NewBlock("mid")
	l2 := r.NewBlock("phase2_loop")
	latch := r.NewBlock("latch")
	done := r.NewBlock("done")

	entry.IMovI(5, iters)
	entry.IOp(isa.OpIMul, 5, isa.RegTid, 5)
	entry.IOpI(isa.OpIAdd, 5, 5, int64(arr))
	entry.IMovI(0, 0)
	entry.Br(step)
	step.IMovI(1, 0)
	step.IMov(2, 5)
	step.Br(l1)
	l1.IOp(isa.OpIAdd, 3, 1, 1)
	l1.IOp(isa.OpIAdd, 4, 2, 1)
	l1.IStore(4, 0, 3)
	l1.IOpI(isa.OpIAdd, 1, 1, 1)
	l1.BrCondI(isa.CondLT, 1, iters, l1, mid)
	rt.EmitBarrier(mid, bar)
	mid.IMovI(1, 0)
	mid.Br(l2)
	l2.IOp(isa.OpIAdd, 4, 2, 1)
	l2.FLoad(0, 4, 0)
	l2.FMA(1, 0, 0)
	l2.IOpI(isa.OpIAdd, 1, 1, 1)
	l2.BrCondI(isa.CondLT, 1, iters, l2, latch)
	rt.EmitBarrier(latch, bar)
	latch.IOpI(isa.OpIAdd, 0, 0, 1)
	latch.BrCondI(isa.CondLT, 0, timesteps, step, done)
	done.Halt()
	for tid := 0; tid < nthreads; tid++ {
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		panic(err)
	}
	return p, rt
}

// WithSyscalls builds a single-routine multi-threaded program in which
// every thread mixes compute with SysRand syscalls whose results feed the
// computation — replay only reproduces it with injection.
func WithSyscalls(nthreads int, iters int64, policy omp.WaitPolicy) *isa.Program {
	p := isa.NewProgram(fmt.Sprintf("sys-%dt", nthreads), nthreads)
	out := p.Alloc("out", uint64(nthreads))
	main := p.AddImage("main", false)
	rt := omp.New(p, policy)
	bar := rt.NewBarrier("join")

	r := main.NewRoutine("thread_main")
	entry := r.NewBlock("entry")
	loop := r.NewBlock("loop")
	done := r.NewBlock("done")
	entry.IMovI(0, 0)
	entry.IMovI(1, 0) // accumulator
	entry.Br(loop)
	loop.Syscall(2, isa.SysRand, 0)
	loop.IOpI(isa.OpIRem, 2, 2, 97)
	loop.IOp(isa.OpIAdd, 1, 1, 2)
	loop.IOpI(isa.OpIAdd, 0, 0, 1)
	loop.BrCondI(isa.CondLT, 0, iters, loop, done)
	done.IOpI(isa.OpIAdd, 3, isa.RegTid, int64(out))
	done.IStore(3, 0, 1)
	rt.EmitBarrier(done, bar)
	done.Halt()
	for tid := 0; tid < nthreads; tid++ {
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		panic(err)
	}
	return p
}

// OutAddr returns the per-thread output cell address of WithSyscalls.
func OutAddr(p *isa.Program, tid int) uint64 {
	a, ok := p.Symbol("out")
	if !ok {
		panic("testprog: program has no out symbol")
	}
	return a + uint64(tid)
}

// Heterogeneous builds a program where thread workloads are deliberately
// unbalanced (thread t executes (t+1)× the inner iterations), mimicking
// 657.xz_s.2's non-homogeneous behaviour (paper Figure 3).
func Heterogeneous(nthreads int, timesteps, iters int64, policy omp.WaitPolicy) *isa.Program {
	p := isa.NewProgram(fmt.Sprintf("hetero-%dt", nthreads), nthreads)
	arr := p.Alloc("arr", uint64(nthreads)*uint64(iters)*uint64(nthreads))
	main := p.AddImage("main", false)
	rt := omp.New(p, policy)
	bar := rt.NewBarrier("step")

	r := main.NewRoutine("thread_main")
	entry := r.NewBlock("entry")
	step := r.NewBlock("timestep")
	loop := r.NewBlock("work_loop")
	latch := r.NewBlock("latch")
	done := r.NewBlock("done")

	// bound = (tid+1) * iters ; base = arr + tid*iters*nthreads
	entry.IOpI(isa.OpIAdd, 6, isa.RegTid, 1)
	entry.IMovI(7, iters)
	entry.IOp(isa.OpIMul, 6, 6, 7)
	entry.IMovI(7, iters*int64(nthreads))
	entry.IOp(isa.OpIMul, 5, isa.RegTid, 7)
	entry.IOpI(isa.OpIAdd, 5, 5, int64(arr))
	entry.IMovI(0, 0)
	entry.Br(step)
	step.IMovI(1, 0)
	step.Br(loop)
	loop.IOp(isa.OpIAdd, 4, 5, 1)
	loop.ILoad(3, 4, 0)
	loop.IOpI(isa.OpIAdd, 3, 3, 7)
	loop.IStore(4, 0, 3)
	loop.IOpI(isa.OpIAdd, 1, 1, 1)
	loop.BrCond(isa.CondLT, 1, 6, loop, latch)
	rt.EmitBarrier(latch, bar)
	latch.IOpI(isa.OpIAdd, 0, 0, 1)
	latch.BrCondI(isa.CondLT, 0, timesteps, step, done)
	done.Halt()
	for tid := 0; tid < nthreads; tid++ {
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		panic(err)
	}
	return p
}

// EveryOp builds a two-thread program whose loop executes every op of the
// ISA, each result reaching memory; no registered workload executes FSub,
// for one. A float comparison on the FSub result also picks which of two
// latch blocks ends each iteration, so a wrong float result changes the
// run's control flow, and with it any timing statistic.
func EveryOp() *isa.Program {
	p := isa.NewProgram("every-op", 2)
	out := p.Alloc("out", 2*16)
	main := p.AddImage("main", false)
	helper := main.NewRoutine("helper")
	helper.NewBlock("entry").IOpI(isa.OpIAdd, 9, 9, 1).Ret()
	r := main.NewRoutine("main")
	entry, loop := r.NewBlock("entry"), r.NewBlock("loop")
	below, above, done := r.NewBlock("below"), r.NewBlock("above"), r.NewBlock("done")
	// r1: the iteration; r2: the thread's 16 cells.
	entry.IMovI(1, 0).IOpI(isa.OpIMul, 2, isa.RegTid, 16).IOpI(isa.OpIAdd, 2, 2, int64(out))
	entry.FMovI(1, 1.5).Br(loop)
	loop.IOpI(isa.OpIAdd, 3, 1, 7).IOp(isa.OpIMul, 4, 3, 3).IOp(isa.OpISub, 5, 4, 1)
	loop.IOp(isa.OpIDiv, 6, 4, 3).IOpI(isa.OpIRem, 7, 4, 5).IOp(isa.OpIAnd, 8, 5, 6)
	loop.IOp(isa.OpIOr, 8, 8, 7).IOp(isa.OpIXor, 8, 8, 3).IOpI(isa.OpIShl, 10, 8, 3)
	loop.IOpI(isa.OpIShr, 10, 10, 1).IMov(11, 10).ICvtF(2, 3)
	loop.FOp(isa.OpFSub, 3, 2, 1).FOp(isa.OpFMul, 4, 3, 2).FOp(isa.OpFDiv, 5, 4, 1)
	loop.FOp(isa.OpFAdd, 6, 5, 3).FMA(6, 2, 3).FOp(isa.OpFSqrt, 7, 6, 0)
	loop.FCmp(isa.CondLT, 12, 3, 4).FCvtI(13, 7)
	loop.IStore(2, 0, 11).IStore(2, 1, 12).IStore(2, 2, 13).FStore(2, 3, 6)
	loop.FLoad(8, 2, 3).FOp(isa.OpFAdd, 1, 1, 8).ILoad(14, 2, 0).IOp(isa.OpIAdd, 9, 9, 14)
	loop.AtomicAdd(15, 2, 4, 1).Xchg(16, 2, 5, 3).CmpXchg(16, 2, 5, 3)
	loop.Syscall(17, isa.SysRand, 1).IOp(isa.OpIXor, 9, 9, 17).Pause().Nop().Call(helper)
	loop.IOpI(isa.OpIAdd, 1, 1, 1).BrCondI(isa.CondEQ, 12, 0, above, below)
	for i, latch := range []*isa.Block{below, above} {
		latch.IOpI(isa.OpIAdd, 18, 18, int64(i+1)).BrCondI(isa.CondLT, 1, 20, loop, done)
	}
	done.IStore(2, 6, 9).IStore(2, 7, 16).IStore(2, 8, 18).Halt()
	p.SetEntry(0, r)
	p.SetEntry(1, r)
	if err := p.Link(); err != nil {
		panic(err)
	}
	return p
}
