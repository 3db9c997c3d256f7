package exec

import (
	"fmt"
	"reflect"
	"testing"

	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// machineState flattens everything architecturally visible for deep
// comparison between the fast and reference paths.
type machineState struct {
	Mem     []uint64
	Regs    [][isa.NumIntRegs]int64
	Fregs   [][isa.NumFloatRegs]float64
	States  []ThreadState
	ICounts []uint64
	Steps   uint64
	PCs     []uint64
}

func captureState(m *Machine) machineState {
	s := machineState{Mem: append([]uint64(nil), m.Mem...), Steps: m.steps}
	for _, t := range m.Threads {
		s.Regs = append(s.Regs, t.R)
		s.Fregs = append(s.Fregs, t.F)
		s.States = append(s.States, t.State)
		s.ICounts = append(s.ICounts, t.ICount)
		if t.State != StateHalted {
			s.PCs = append(s.PCs, t.PC())
		} else {
			s.PCs = append(s.PCs, 0)
		}
	}
	return s
}

func fastPathPrograms(t testing.TB) map[string]*isa.Program {
	out := map[string]*isa.Program{}
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		name := "passive"
		if policy == omp.Active {
			name = "active"
		}
		cp, _ := buildCounterProgram(t, 4, 200, policy)
		out["counter-"+name] = cp
		out["phased-"+name] = testprog.Phased(4, 3, 40, policy)
		out["hetero-"+name] = testprog.Heterogeneous(4, 3, 40, policy)
		out["syscalls-"+name] = testprog.WithSyscalls(2, 60, policy)
	}
	out["counter-1t"], _ = buildCounterProgram(t, 1, 500, omp.Passive)
	return out
}

// stepBlockViaStep assembles the same event StepBlock's fast path would,
// by driving Step: the reference implementation the fast path is tested
// against.
func (m *Machine) stepBlockViaStep(tid int, budget uint64, ev *BlockEvent) bool {
	t := m.Threads[tid]
	if t.State != StateRunning || budget == 0 {
		return false
	}
	rt, blk := t.cur.rt, t.cur.b

	ev.reset(tid, blk, t.cur.idx)
	if t.cur.idx == 0 {
		ev.Entries = 1
	}

	var retired uint64
	for {
		sev, ok := m.Step(tid)
		if !ok {
			break // unreachable: loop only continues while running in-block
		}
		retired++
		if len(sev.Woken) > 0 {
			ev.Woken = append(ev.Woken, sev.Woken...)
			break
		}
		if sev.Blocked {
			ev.Blocked = true
			break
		}
		if t.State == StateHalted {
			break
		}
		op := sev.Instr.Op
		if op == isa.OpBr || op == isa.OpBrCond {
			selfEntry := t.cur.rt == rt && t.cur.b == blk && t.cur.idx == 0
			if selfEntry && blk.SelfLoop && retired < budget {
				ev.Entries++
				continue
			}
			break
		}
		if op == isa.OpCall || op == isa.OpRet {
			break
		}
		if retired == budget {
			break
		}
	}
	ev.Instrs = retired
	return true
}

// stepRun is Run's per-instruction reference: the same round-robin order,
// quantum (scaled by QuantumBias) and flow-window rule, retiring one Step
// at a time and handing each event to fn. It returns the schedule it ran.
func stepRun(m *Machine, opts RunOpts, fn func(*Event)) (_ Schedule, err error) {
	defer Recover(&err)
	q := opts.Quantum
	if q <= 0 {
		q = 64
	}
	var rec recorder
	for !m.Done() {
		progressed := false
		minIC := m.minRunningICount()
		for tid, t := range m.Threads {
			if t.State != StateRunning || (opts.FlowWindow > 0 && t.ICount > minIC+opts.FlowWindow) {
				continue
			}
			quantum := q
			if tid < len(opts.QuantumBias) && opts.QuantumBias[tid] > 0 {
				quantum *= opts.QuantumBias[tid]
			}
			ran := 0
			for ; ran < quantum; ran++ {
				ev, ok := m.Step(tid)
				if !ok {
					break
				}
				fn(ev)
			}
			if ran > 0 {
				progressed = true
				rec.add(tid, ran)
			}
		}
		if !progressed {
			return rec.schedule(), ErrDeadlock
		}
	}
	return rec.schedule(), nil
}

// stepSchedule is RunSchedule's per-instruction reference: it retires
// sched one Step at a time.
func stepSchedule(m *Machine, sched Schedule) (err error) {
	defer Recover(&err)
	for _, e := range sched {
		for i := uint32(0); i < e.N; i++ {
			if _, ok := m.Step(e.Tid); !ok {
				return fmt.Errorf("%w: thread %d is %s", ErrScheduleDiverged, e.Tid, m.Threads[e.Tid].State)
			}
		}
	}
	return nil
}

// TestStepBlockMatchesStep drives two machines through identical budget
// sequences — one on the tight-loop fast path, one on the Step-assembled
// reference path — and requires identical event streams and identical
// architectural state at every event boundary.
func TestStepBlockMatchesStep(t *testing.T) {
	for name, p := range fastPathPrograms(t) {
		t.Run(name, func(t *testing.T) {
			fast := NewMachine(p, 7)
			slow := NewMachine(p, 7)

			// Varied budgets cut passes mid-block and coalesce others.
			var fev, sev BlockEvent
			budgets := []uint64{1, 3, 64, 7, 1000, 2, 17}
			bi := 0
			for round := 0; round < 200000 && !fast.Done(); round++ {
				tid := round % p.NumThreads()
				b := budgets[bi%len(budgets)]
				bi++
				fok := fast.StepBlock(tid, b, &fev)
				sok := slow.stepBlockViaStep(tid, b, &sev)
				if fok != sok {
					t.Fatalf("round %d tid %d: fast ok=%v slow ok=%v", round, tid, fok, sok)
				}
				if !fok {
					continue
				}
				if !reflect.DeepEqual(&fev, &sev) {
					t.Fatalf("round %d tid %d: events differ\nfast: %+v\nslow: %+v", round, tid, fev, sev)
				}
				if fast.Deadlocked() {
					break
				}
			}
			fs, ss := captureState(fast), captureState(slow)
			if !reflect.DeepEqual(fs, ss) {
				t.Fatalf("final machine state differs between fast and reference paths")
			}
		})
	}
}

// TestRunBlockModeMatchesStepLoop pins that Run's block batches visit the
// same execution as the per-instruction reference loop (stepRun):
// identical recorded schedules, identical final state, and identical
// per-block retired counts.
func TestRunBlockModeMatchesStepLoop(t *testing.T) {
	for name, p := range fastPathPrograms(t) {
		t.Run(name, func(t *testing.T) {
			for _, opts := range []RunOpts{
				{},
				{Quantum: 5},
				{FlowWindow: 32},
				{FlowWindow: 16, QuantumBias: []int{1, 3, 1, 2}},
			} {
				slow := NewMachine(p, 3)
				slowCounts := map[int]uint64{}
				slowSched, err := stepRun(slow, opts, func(ev *Event) {
					slowCounts[ev.Block.Global]++
				})
				if err != nil {
					t.Fatalf("slow run: %v", err)
				}

				fast := NewMachine(p, 3)
				fastCounts := map[int]uint64{}
				fast.AddBlockObserver(BlockObserverFunc(func(ev *BlockEvent) {
					fastCounts[ev.Block.Global] += ev.Instrs
				}))
				var fastSched Schedule
				fo := opts
				fo.Record = &fastSched
				if err := fast.Run(fo); err != nil {
					t.Fatalf("fast run: %v", err)
				}

				if !reflect.DeepEqual(fastSched, slowSched) {
					t.Fatalf("opts %+v: recorded schedules differ (%d vs %d entries)",
						opts, len(fastSched), len(slowSched))
				}
				if !reflect.DeepEqual(captureState(fast), captureState(slow)) {
					t.Fatalf("opts %+v: final state differs", opts)
				}
				if !reflect.DeepEqual(fastCounts, slowCounts) {
					t.Fatalf("opts %+v: per-block instruction counts differ", opts)
				}
			}
		})
	}
}

// TestRunScheduleBlockModeMatches replays a recorded schedule through
// RunSchedule and the per-instruction reference and compares final states.
func TestRunScheduleBlockModeMatches(t *testing.T) {
	for name, p := range fastPathPrograms(t) {
		t.Run(name, func(t *testing.T) {
			rec := NewMachine(p, 9)
			var sched Schedule
			if err := rec.Run(RunOpts{FlowWindow: 64, Record: &sched}); err != nil {
				t.Fatalf("record: %v", err)
			}
			slow := NewMachine(p, 9)
			if err := stepSchedule(slow, sched); err != nil {
				t.Fatalf("slow replay: %v", err)
			}
			fast := NewMachine(p, 9)
			if err := fast.RunSchedule(sched); err != nil {
				t.Fatalf("fast replay: %v", err)
			}
			if !reflect.DeepEqual(captureState(fast), captureState(slow)) {
				t.Fatal("replayed final state differs between engines")
			}
			if !reflect.DeepEqual(captureState(fast), captureState(rec)) {
				t.Fatal("replayed state differs from recorded run")
			}
		})
	}
}

// TestBlockEventDispatchAllocFree pins the free-list guarantee: steady-
// state block dispatch through Run must not allocate per event.
func TestBlockEventDispatchAllocFree(t *testing.T) {
	p, _ := buildCounterProgram(t, 2, 1_000_000_000, omp.Passive)
	m := NewMachine(p, 1)
	var instrs uint64
	m.AddBlockObserver(BlockObserverFunc(func(ev *BlockEvent) { instrs += ev.Instrs }))
	var ev BlockEvent
	// Settle into the loop (and size the event's Woken array).
	m.StepBlock(0, 1024, &ev)
	allocs := testing.AllocsPerRun(100, func() {
		for tid := 0; tid < 2; tid++ {
			if m.StepBlock(tid, 256, &ev) {
				for _, o := range m.blockObservers {
					o.OnBlock(&ev)
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("block dispatch allocates %.1f objects per round, want 0", allocs)
	}
	if instrs == 0 {
		t.Fatal("observer saw no instructions")
	}
}
