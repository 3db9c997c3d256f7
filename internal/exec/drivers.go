package exec

import (
	"errors"
	"fmt"
)

// ErrDeadlock is returned when live threads exist but none can run.
var ErrDeadlock = errors.New("exec: deadlock: all live threads blocked")

// ErrMaxSteps is returned when a run exceeds its step budget.
var ErrMaxSteps = errors.New("exec: maximum step budget exceeded")

// ErrScheduleDiverged is returned by RunSchedule when the recorded
// schedule asks a thread to run while it is blocked or halted — the
// replayed execution no longer matches the recording.
var ErrScheduleDiverged = errors.New("exec: constrained replay diverged from recorded schedule")

// ScheduleEntry is one run segment of a recorded thread interleaving:
// thread Tid retired N consecutive instructions.
type ScheduleEntry struct {
	Tid int
	N   uint32
}

// Schedule is a recorded thread interleaving — the shared-memory
// dependency (.race) component of a pinball. Replaying the same schedule
// with the same syscall injections reproduces the execution exactly.
type Schedule []ScheduleEntry

// Steps returns the total retired instructions the schedule covers.
func (s Schedule) Steps() uint64 {
	var n uint64
	for _, e := range s {
		n += uint64(e.N)
	}
	return n
}

// Window returns the n steps that follow the first from steps (fewer
// where the schedule ends first): one walk to find the window's entries
// and one exactly-sized copy of them, so slicing a recording into region
// pinballs costs the windows, not a copy of the remaining schedule per cut
// (and a window spanning a million-entry recording costs one memmove, not
// a slice grown entry by entry).
func (s Schedule) Window(from, n uint64) Schedule {
	// [first, end) are the entries the window touches; the first loses
	// `from` leading steps, the last keeps only what n still allows.
	first, end := -1, 0
	var lastN uint64
	for i, e := range s {
		if n == 0 {
			break
		}
		run := uint64(e.N)
		if first < 0 {
			if run <= from {
				from -= run
				continue
			}
			first = i
			run -= from
		}
		lastN = min(run, n)
		n -= lastN
		end = i + 1
	}
	if first < 0 {
		return nil
	}
	out := make(Schedule, end-first)
	copy(out, s[first:end])
	out[0].N -= uint32(from)
	out[len(out)-1].N = uint32(lastN)
	return out
}

// RunOpts configures a machine run.
type RunOpts struct {
	// Quantum is the number of instructions a thread retires before the
	// scheduler rotates. Defaults to 64.
	Quantum int
	// FlowWindow, when non-zero, enables the paper's flow-control
	// scheduler (Section III-B): a thread is descheduled while its
	// retired-instruction count exceeds the minimum among running
	// threads by more than the window. This enforces equal forward
	// progress during analysis.
	FlowWindow uint64
	// MaxSteps caps the instructions the run retires (0 = no cap): Run
	// stops after exactly MaxSteps and returns ErrMaxSteps if a thread is
	// still alive then.
	MaxSteps uint64
	// Record, when non-nil, is set to the run's thread interleaving when
	// Run returns (also on error, to what ran until then).
	Record *Schedule
	// QuantumBias, when non-empty, multiplies each thread's scheduling
	// quantum by the given per-thread factor. It emulates host-processor
	// imbalance (external load, frequency differences) during recording —
	// the skew the paper's flow-control mechanism exists to neutralize
	// (Section III-B).
	QuantumBias []int
}

// Run drives the machine with a deterministic round-robin scheduler until
// every thread halts or an error occurs, retiring instructions in block
// batches (StepBlock) and dispatching each batch to the block observers.
// Machine faults raised mid-step (unimplemented opcode, wild address,
// return past the entry frame) surface as a *ExecError wrapping
// ErrMachine.
func (m *Machine) Run(opts RunOpts) (err error) {
	defer Recover(&err)
	q := opts.Quantum
	if q <= 0 {
		q = 64
	}
	var rec recorder
	if opts.Record != nil {
		defer func() { *opts.Record = rec.schedule() }()
	}
	var steps uint64
	ev := new(BlockEvent)
	for !m.Done() {
		progressed := false
		minIC := m.minRunningICount()
		for tid := range m.Threads {
			t := m.Threads[tid]
			if t.State != StateRunning {
				continue
			}
			if opts.FlowWindow > 0 && t.ICount > minIC+opts.FlowWindow {
				continue // too far ahead; let the others catch up
			}
			quantum := uint64(q)
			if tid < len(opts.QuantumBias) && opts.QuantumBias[tid] > 0 {
				quantum *= uint64(opts.QuantumBias[tid])
			}
			if opts.MaxSteps > 0 {
				quantum = min(quantum, opts.MaxSteps-steps)
			}
			var ran uint64
			for ran < quantum && m.StepBlock(tid, quantum-ran, ev) {
				ran += ev.Instrs
				for _, o := range m.blockObservers {
					o.OnBlock(ev)
				}
			}
			steps += ran
			if ran > 0 {
				progressed = true
				if opts.Record != nil {
					rec.add(tid, int(ran))
				}
			}
			if opts.MaxSteps > 0 && steps == opts.MaxSteps && !m.Done() {
				return fmt.Errorf("%w (%d)", ErrMaxSteps, opts.MaxSteps)
			}
		}
		if !progressed {
			if m.Deadlocked() {
				return ErrDeadlock
			}
			if !m.Done() {
				// All running threads were outside the flow window
				// with no minimum runner — cannot happen unless the
				// window excluded the minimum thread, which it never
				// does. Guard anyway.
				return fmt.Errorf("exec: scheduler made no progress")
			}
		}
	}
	return nil
}

func (m *Machine) minRunningICount() uint64 {
	min := ^uint64(0)
	for _, t := range m.Threads {
		if t.State == StateRunning && t.ICount < min {
			min = t.ICount
		}
	}
	return min
}

// recordChunk is the recorder's allocation unit, in entries (32 KB).
const recordChunk = 2048

// recorder accumulates a run's schedule in fixed chunks and concatenates
// them once, at its exact size, when the run ends: an entry moves once. (A
// ref recording is 0.5–1 M entries; one slice grown by append re-copies it
// ≈ 5 times over, 1.25× at a time and onto fresh pages each time.)
type recorder struct {
	full []Schedule // filled chunks
	cur  Schedule   // the chunk being filled; never empty after the first add
}

// add appends n instructions retired by tid, extending the last entry
// when the same thread ran again.
func (r *recorder) add(tid, n int) {
	if k := len(r.cur); k > 0 && r.cur[k-1].Tid == tid && uint64(r.cur[k-1].N)+uint64(n) < 1<<32 {
		r.cur[k-1].N += uint32(n)
		return
	}
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			r.full = append(r.full, r.cur)
		}
		r.cur = make(Schedule, 0, recordChunk)
	}
	r.cur = append(r.cur, ScheduleEntry{Tid: tid, N: uint32(n)})
}

// schedule returns the recording as one exactly-sized slice.
func (r *recorder) schedule() Schedule {
	out := make(Schedule, 0, len(r.full)*recordChunk+len(r.cur))
	for _, c := range r.full {
		out = append(out, c...)
	}
	return append(out, r.cur...)
}

// RunSchedule replays a recorded thread interleaving exactly (constrained
// replay), retiring instructions in block batches as Run does. It returns
// ErrScheduleDiverged if the schedule asks a thread to run when it cannot.
// Machine faults surface as a *ExecError wrapping ErrMachine, as in Run.
func (m *Machine) RunSchedule(sched Schedule) (err error) {
	defer Recover(&err)
	ev := new(BlockEvent)
	for _, e := range sched {
		rem := uint64(e.N)
		for rem > 0 {
			if !m.StepBlock(e.Tid, rem, ev) {
				return fmt.Errorf("%w: thread %d is %s", ErrScheduleDiverged,
					e.Tid, m.Threads[e.Tid].State)
			}
			rem -= ev.Instrs
			for _, o := range m.blockObservers {
				o.OnBlock(ev)
			}
		}
	}
	return nil
}
