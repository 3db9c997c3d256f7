package exec

import (
	"errors"
	"testing"

	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// buildCounterProgram builds an N-thread program where each thread
// atomically adds (tid+1) to a shared accumulator iters times, crosses a
// barrier, and halts. Returns the program and the accumulator address.
func buildCounterProgram(t testing.TB, nthreads, iters int, policy omp.WaitPolicy) (*isa.Program, uint64) {
	t.Helper()
	p := isa.NewProgram("counter", nthreads)
	acc := p.Alloc("acc", 1)
	main := p.AddImage("main", false)
	rt := omp.New(p, policy)
	bar := rt.NewBarrier("join")

	for tid := 0; tid < nthreads; tid++ {
		r := main.NewRoutine("thread_main")
		entry := r.NewBlock("entry")
		loop := r.NewBlock("loop")
		after := r.NewBlock("after")
		entry.IMovI(0, 0)                        // i = 0
		entry.IOpI(isa.OpIAdd, 1, isa.RegTid, 1) // inc = tid+1
		entry.IMovI(2, int64(acc))
		entry.Br(loop)
		loop.AtomicAdd(3, 2, 0, 1)
		loop.IOpI(isa.OpIAdd, 0, 0, 1)
		loop.BrCondI(isa.CondLT, 0, int64(iters), loop, after)
		rt.EmitBarrier(after, bar)
		after.Halt()
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p, acc
}

func expectedSum(nthreads, iters int) int64 {
	var s int64
	for tid := 0; tid < nthreads; tid++ {
		s += int64((tid + 1) * iters)
	}
	return s
}

func TestRunRoundRobinCounter(t *testing.T) {
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		p, acc := buildCounterProgram(t, 4, 100, policy)
		m := NewMachine(p, 1)
		if err := m.Run(RunOpts{}); err != nil {
			t.Fatalf("policy %v: Run: %v", policy, err)
		}
		if got, want := int64(m.LoadWord(acc)), expectedSum(4, 100); got != want {
			t.Errorf("policy %v: acc = %d, want %d", policy, got, want)
		}
		if !m.Done() {
			t.Errorf("policy %v: machine not done", policy)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() (int64, uint64) {
		p, acc := buildCounterProgram(t, 4, 200, omp.Passive)
		m := NewMachine(p, 7)
		if err := m.Run(RunOpts{Quantum: 17}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return int64(m.LoadWord(acc)), m.TotalICount()
	}
	v1, n1 := run()
	v2, n2 := run()
	if v1 != v2 || n1 != n2 {
		t.Errorf("non-deterministic run: (%d,%d) vs (%d,%d)", v1, n1, v2, n2)
	}
}

func TestScheduleRecordReplay(t *testing.T) {
	p, acc := buildCounterProgram(t, 4, 150, omp.Active)
	m := NewMachine(p, 3)
	var sched Schedule
	if err := m.Run(RunOpts{Quantum: 23, Record: &sched}); err != nil {
		t.Fatalf("record Run: %v", err)
	}
	want := int64(m.LoadWord(acc))
	wantIC := m.TotalICount()
	if sched.Steps() != wantIC {
		t.Fatalf("schedule covers %d steps, machine retired %d", sched.Steps(), wantIC)
	}

	// Constrained replay must reproduce the execution exactly.
	p2, acc2 := buildCounterProgram(t, 4, 150, omp.Active)
	m2 := NewMachine(p2, 3)
	if err := m2.RunSchedule(sched); err != nil {
		t.Fatalf("RunSchedule: %v", err)
	}
	if got := int64(m2.LoadWord(acc2)); got != want {
		t.Errorf("replay acc = %d, want %d", got, want)
	}
	if m2.TotalICount() != wantIC {
		t.Errorf("replay retired %d, want %d", m2.TotalICount(), wantIC)
	}
	if !m2.Done() {
		t.Error("replay did not finish")
	}
}

func TestFlowControlEqualizesProgress(t *testing.T) {
	// Threads with wildly different work per iteration: without flow
	// control the round-robin scheduler lets the cheap thread race ahead
	// within each quantum; with a window the max gap stays bounded.
	p, _ := buildCounterProgram(t, 4, 2000, omp.Passive)
	m := NewMachine(p, 1)
	const window = 128
	maxGap := uint64(0)
	m.AddBlockObserver(BlockObserverFunc(func(*BlockEvent) {
		var lo, hi uint64 = ^uint64(0), 0
		for _, th := range m.Threads {
			if th.State == StateHalted {
				continue
			}
			if th.ICount < lo {
				lo = th.ICount
			}
			if th.ICount > hi {
				hi = th.ICount
			}
		}
		if hi > lo && hi-lo > maxGap {
			maxGap = hi - lo
		}
	}))
	if err := m.Run(RunOpts{Quantum: 64, FlowWindow: window}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Gap can exceed the window by at most one quantum of slack.
	if maxGap > window+64 {
		t.Errorf("flow control gap %d exceeds window %d + quantum", maxGap, window)
	}
}

func TestDeadlockDetection(t *testing.T) {
	p := isa.NewProgram("deadlock", 1)
	w := p.Alloc("w", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	b := r.NewBlock("entry")
	b.IMovI(1, int64(w))
	b.IMovI(2, 0)
	b.FutexWait(1, 0, 2) // waits forever: value is 0 and nobody wakes
	b.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	m := NewMachine(p, 1)
	err := m.Run(RunOpts{})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
}

func TestMaxStepsGuard(t *testing.T) {
	p := isa.NewProgram("spin", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	loop := r.NewBlock("loop")
	loop.Nop()
	loop.Br(loop)
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	m := NewMachine(p, 1)
	err := m.Run(RunOpts{MaxSteps: 1000})
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("Run = %v, want ErrMaxSteps", err)
	}
}

// TestMaxStepsBudgetIsExact pins MaxSteps as an exact instruction cap: a
// budget equal to the program's length finishes it without error, and one
// instruction less stops there with ErrMaxSteps.
func TestMaxStepsBudgetIsExact(t *testing.T) {
	p := testprog.Phased(2, 3, 50, omp.Passive)
	m := NewMachine(p, 1)
	if err := m.Run(RunOpts{}); err != nil {
		t.Fatal(err)
	}
	total := m.TotalICount()

	m = NewMachine(p, 1)
	if err := m.Run(RunOpts{MaxSteps: total}); err != nil || !m.Done() {
		t.Fatalf("MaxSteps = program length: Run = %v, done = %v; want nil, true", err, m.Done())
	}
	m = NewMachine(p, 1)
	if err := m.Run(RunOpts{MaxSteps: total - 1}); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("MaxSteps = program length - 1: Run = %v, want ErrMaxSteps", err)
	}
	if got := m.TotalICount(); got != total-1 {
		t.Fatalf("MaxSteps = %d retired %d instructions", total-1, got)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p, acc := buildCounterProgram(t, 4, 300, omp.Passive)
	m := NewMachine(p, 5)
	// Run partway.
	if err := m.Run(RunOpts{Quantum: 50, MaxSteps: 2000}); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("partial Run = %v, want ErrMaxSteps", err)
	}
	snap := m.Snapshot()
	// Finish from the snapshot on a fresh machine.
	p2, acc2 := buildCounterProgram(t, 4, 300, omp.Passive)
	m2 := NewMachine(p2, 5)
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(RunOpts{Quantum: 50}); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	// Finish the original too; both must agree.
	if err := m.Run(RunOpts{Quantum: 50}); err != nil {
		t.Fatalf("original Run: %v", err)
	}
	if a, b := int64(m.LoadWord(acc)), int64(m2.LoadWord(acc2)); a != b {
		t.Errorf("restored run result %d != original %d", b, a)
	}
	if m.TotalICount() != m2.TotalICount() {
		t.Errorf("icounts differ: %d vs %d", m.TotalICount(), m2.TotalICount())
	}
}

func TestObserverSeesBlockEntriesAndBranches(t *testing.T) {
	p, _ := buildCounterProgram(t, 2, 10, omp.Passive)
	m := NewMachine(p, 1)
	var blockEntries, branches, taken, mem, writes int
	_, err := stepRun(m, RunOpts{}, func(ev *Event) {
		if ev.BlockEntry {
			blockEntries++
		}
		if ev.Instr.Op.IsBranch() {
			branches++
			if ev.Taken {
				taken++
			}
		}
		if ev.Instr.Op.IsMem() {
			mem++
			if ev.Instr.Op.IsWrite() {
				writes++
			}
		}
	})
	if err != nil {
		t.Fatalf("stepRun: %v", err)
	}
	if blockEntries == 0 || branches == 0 || taken == 0 || mem == 0 || writes == 0 {
		t.Errorf("observer counts: blocks=%d branches=%d taken=%d mem=%d writes=%d; all must be > 0",
			blockEntries, branches, taken, mem, writes)
	}
	if writes > mem {
		t.Errorf("writes %d > mem ops %d", writes, mem)
	}
}

func TestRecordingAndReplayOS(t *testing.T) {
	p := isa.NewProgram("sys", 1)
	out := p.Alloc("out", 4)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	b := r.NewBlock("entry")
	b.IMovI(1, int64(out))
	for i := 0; i < 4; i++ {
		b.Syscall(2, isa.SysRand, 0)
		b.IStore(1, int64(i), 2)
	}
	b.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}

	m := NewMachine(p, 99)
	rec := NewRecordingOS(m.OS, 1)
	m.OS = rec
	if err := m.Run(RunOpts{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want [4]int64
	for i := range want {
		want[i] = int64(m.LoadWord(out + uint64(i)))
	}
	if len(rec.Log[0]) != 4 {
		t.Fatalf("recorded %d syscalls, want 4", len(rec.Log[0]))
	}

	// Replay with a different seed: injection must reproduce results.
	m2 := NewMachine(p, 12345)
	replay := NewReplayOS(rec.Log)
	m2.OS = replay
	if err := m2.Run(RunOpts{}); err != nil {
		t.Fatalf("replay Run: %v", err)
	}
	for i := range want {
		if got := int64(m2.LoadWord(out + uint64(i))); got != want[i] {
			t.Errorf("replayed out[%d] = %d, want %d", i, got, want[i])
		}
	}
	if replay.Diverged {
		t.Error("replay diverged")
	}

	// Injection running dry flags divergence.
	m3 := NewMachine(p, 1)
	short := NewReplayOS([][]int64{{1, 2}})
	m3.OS = short
	if err := m3.Run(RunOpts{}); err != nil {
		t.Fatalf("short replay Run: %v", err)
	}
	if !short.Diverged {
		t.Error("short injection log did not flag divergence")
	}
}

func TestThreadStateString(t *testing.T) {
	if StateRunning.String() != "running" || StateBlocked.String() != "blocked" || StateHalted.String() != "halted" {
		t.Error("bad state strings")
	}
}
