package timing

import (
	"fmt"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/workloads"
)

// TestLoopExecutesLikeBlockTier drives the shipping timing loop over the
// recording of every registered workload at test input, four threads,
// both wait policies, and of everyOp, under the recording's own schedule
// (the order SimulateConstrained follows), once charging every
// instruction in full and once cold. The loop executes each instruction
// itself, so the machine must end on the memory the block tier's
// recording ended on: the pinball's FinalChecksum. A slip in any op the
// loop executes — an arithmetic result, a store's source, a branch's
// direction — shows here whatever the charge makes of it.
func TestLoopExecutesLikeBlockTier(t *testing.T) {
	progs := map[string]*isa.Program{"every-op": everyOp(t)}
	for _, spec := range workloads.All() {
		for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
			app, err := spec.Build(workloads.BuildParams{Threads: 4, Input: workloads.InputTest, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			progs[fmt.Sprintf("%s/%v", spec.Name, policy)] = app.Prog
		}
	}
	for name, p := range progs {
		pb, err := pinball.RecordWithOptions(p, 1, exec.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, before := range []charge{measured, cold} {
			name := fmt.Sprintf("%s/charge-%d", name, before)
			sim, err := New(Gainestown(4), p)
			if err != nil {
				t.Fatal(err)
			}
			m := exec.NewMachine(p, 0)
			if err := m.Restore(pb.Start); err != nil {
				t.Fatal(err)
			}
			replay := exec.NewReplayOS(pb.Syscalls)
			m.OS = replay
			start := bbv.Marker{} // measured from the first instruction
			if before == cold {
				start = bbv.Marker{Count: 1 << 62} // never reached
			}
			r := &run{src: m, start: start, end: bbv.Marker{IsEnd: true}, before: before,
				bind: func(sys *system) { sys.follow(scheduleOrder(pb.Schedule), false) }}
			if _, err := sim.simulate(r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if replay.Diverged {
				t.Fatalf("%s: the run exhausted the syscall injection log", name)
			}
			if got := m.TotalICount(); got != pb.Schedule.Steps() {
				t.Errorf("%s: retired %d instructions, the recording %d", name, got, pb.Schedule.Steps())
			}
			if got := artifact.ChecksumWords(m.Mem); got != pb.FinalChecksum {
				t.Errorf("%s: final memory checksum %#x, the recording's %#x", name, got, pb.FinalChecksum)
			}
		}
	}
}

// everyOp builds a two-thread program whose loop executes every op, each
// result reaching memory: no registered workload executes FSub, for one.
func everyOp(t *testing.T) *isa.Program {
	p := isa.NewProgram("every-op", 2)
	out := p.Alloc("out", 2*16)
	main := p.AddImage("main", false)
	helper := main.NewRoutine("helper")
	helper.NewBlock("entry").IOpI(isa.OpIAdd, 9, 9, 1).Ret()
	r := main.NewRoutine("main")
	entry, loop, done := r.NewBlock("entry"), r.NewBlock("loop"), r.NewBlock("done")
	entry.IMovI(1, 0) // r1: the iteration
	entry.IOpI(isa.OpIMul, 2, isa.RegTid, 16)
	entry.IOpI(isa.OpIAdd, 2, 2, int64(out)) // r2: the thread's 16 cells
	entry.FMovI(1, 1.5)
	entry.Br(loop)
	loop.IOpI(isa.OpIAdd, 3, 1, 7)
	loop.IOp(isa.OpIMul, 4, 3, 3)
	loop.IOp(isa.OpISub, 5, 4, 1)
	loop.IOp(isa.OpIDiv, 6, 4, 3)
	loop.IOpI(isa.OpIRem, 7, 4, 5)
	loop.IOp(isa.OpIAnd, 8, 5, 6)
	loop.IOp(isa.OpIOr, 8, 8, 7)
	loop.IOp(isa.OpIXor, 8, 8, 3)
	loop.IOpI(isa.OpIShl, 10, 8, 3)
	loop.IOpI(isa.OpIShr, 10, 10, 1)
	loop.IMov(11, 10)
	loop.ICvtF(2, 3)
	loop.FOp(isa.OpFSub, 3, 2, 1)
	loop.FOp(isa.OpFMul, 4, 3, 2)
	loop.FOp(isa.OpFDiv, 5, 4, 1)
	loop.FOp(isa.OpFAdd, 6, 5, 3)
	loop.FMA(6, 2, 3)
	loop.FOp(isa.OpFSqrt, 7, 6, 0)
	loop.FCmp(isa.CondLT, 12, 3, 4)
	loop.FCvtI(13, 7)
	loop.IStore(2, 0, 11)
	loop.IStore(2, 1, 12)
	loop.IStore(2, 2, 13)
	loop.FStore(2, 3, 6)
	loop.FLoad(8, 2, 3)
	loop.FOp(isa.OpFAdd, 1, 1, 8)
	loop.ILoad(14, 2, 0)
	loop.IOp(isa.OpIAdd, 9, 9, 14)
	loop.AtomicAdd(15, 2, 4, 1)
	loop.Xchg(16, 2, 5, 3)
	loop.CmpXchg(16, 2, 5, 3)
	loop.Syscall(17, isa.SysRand, 1)
	loop.IOp(isa.OpIXor, 9, 9, 17)
	loop.Pause()
	loop.Nop()
	loop.Call(helper)
	loop.IOpI(isa.OpIAdd, 1, 1, 1)
	loop.BrCondI(isa.CondLT, 1, 20, loop, done)
	done.IStore(2, 6, 9)
	done.IStore(2, 7, 16)
	done.Halt()
	p.SetEntry(0, r)
	p.SetEntry(1, r)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p
}

// scheduleOrder names the threads of sched one instruction at a time.
func scheduleOrder(sched exec.Schedule) func() (int, bool) {
	i, tid, left := 0, 0, uint32(0)
	return func() (int, bool) {
		for ; left == 0; i++ {
			if i == len(sched) {
				return 0, false
			}
			tid, left = sched[i].Tid, sched[i].N
		}
		left--
		return tid, true
	}
}
