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
	"looppoint/internal/testprog"
	"looppoint/internal/workloads"
)

// TestLoopExecutesLikeBlockTier drives the shipping timing loop over the
// recording of every registered workload at test input, four threads,
// both wait policies, and of testprog.EveryOp, under the recording's own schedule
// (the order SimulateConstrained follows), once charging every
// instruction in full and once cold. The loop executes each instruction
// itself, so the machine must end on the memory the block tier's
// recording ended on: the pinball's FinalChecksum. A slip in any op the
// loop executes — an arithmetic result, a store's source, a branch's
// direction — shows here whatever the charge makes of it.
func TestLoopExecutesLikeBlockTier(t *testing.T) {
	progs := map[string]*isa.Program{"every-op": testprog.EveryOp()}
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
