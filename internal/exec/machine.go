// Package exec provides the functional execution engine for mini-ISA
// programs: an interpreter for N threads over a shared flat memory, with
// block-granular observers, futex semantics, an OS model with recordable
// side effects, and deterministic schedulers (round-robin and the paper's
// flow-control scheduler, Section III-B).
package exec

import (
	"math"

	"looppoint/internal/isa"
)

// ThreadState describes a thread's run state.
type ThreadState uint8

// Thread states.
const (
	StateRunning ThreadState = iota
	StateBlocked             // parked on a futex
	StateHalted
)

func (s ThreadState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateHalted:
		return "halted"
	}
	return "unknown"
}

type frame struct {
	rt  *isa.Routine
	blk int
	idx int
}

// Thread is a single hardware-thread context.
type Thread struct {
	ID    int
	R     [isa.NumIntRegs]int64
	F     [isa.NumFloatRegs]float64
	State ThreadState

	cur   frame
	stack []frame

	ICount    uint64 // retired instructions
	futexAddr uint64 // word address the thread is parked on (StateBlocked)
}

// PC returns the address of the next instruction the thread will execute.
func (t *Thread) PC() uint64 {
	if t.State == StateHalted {
		return 0
	}
	return t.cur.rt.Blocks[t.cur.blk].Instrs[t.cur.idx].Addr
}

// Event describes one instruction executed by Step.
//
// Aliasing contract: a single machine-owned Event value is reused by
// every call to Step — the pointer Step returns is invalidated by the
// next Step on the same machine. Callers must consume the event before
// stepping again and must never retain the pointer or the Woken slice.
// The drivers (Run, RunSchedule) never call Step: they retire block
// batches and dispatch BlockEvents. Step is the timing model's engine and
// the per-instruction replay (pinball's StepReplay) that feeds the trace
// writer and the OnInstr test oracles.
type Event struct {
	Tid        int
	Instr      *isa.Instr
	Block      *isa.Block
	BlockEntry bool   // first instruction of the block
	MemAddr    uint64 // byte address for memory ops (Instr.Op.IsMem)
	Taken      bool   // a control transfer was taken
	Blocked    bool   // the instruction parked the thread on a futex
	Woken      []int  // threads woken by a FutexWake
}

// Machine executes a linked program.
type Machine struct {
	Prog    *isa.Program
	Mem     []uint64
	Threads []*Thread
	OS      OS

	blockObservers []BlockObserver
	futexQ         map[uint64][]int // word address -> waiting thread IDs (FIFO)
	ev             Event
	steps          uint64
}

// NewMachine creates a machine for a linked program with zeroed memory and
// all threads positioned at their entry routines. The default OS is a
// deterministic pseudo-random source seeded with seed.
func NewMachine(p *isa.Program, seed uint64) *Machine {
	m := &Machine{
		Prog:   p,
		Mem:    make([]uint64, p.MemWords),
		OS:     NewDefaultOS(seed),
		futexQ: make(map[uint64][]int),
	}
	for tid := 0; tid < p.NumThreads(); tid++ {
		t := &Thread{ID: tid, cur: frame{rt: p.Entries[tid]}}
		t.R[isa.RegTid] = int64(tid)
		m.Threads = append(m.Threads, t)
	}
	return m
}

// Done reports whether every thread has halted.
func (m *Machine) Done() bool {
	for _, t := range m.Threads {
		if t.State != StateHalted {
			return false
		}
	}
	return true
}

// Deadlocked reports whether at least one thread is alive and none can run.
func (m *Machine) Deadlocked() bool {
	alive := false
	for _, t := range m.Threads {
		switch t.State {
		case StateRunning:
			return false
		case StateBlocked:
			alive = true
		}
	}
	return alive
}

// TotalICount returns the total retired instruction count across threads.
func (m *Machine) TotalICount() uint64 {
	var n uint64
	for _, t := range m.Threads {
		n += t.ICount
	}
	return n
}

// LoadWord reads one word of shared memory (for tests and runtime setup).
func (m *Machine) LoadWord(addr uint64) uint64 { return m.Mem[addr] }

// Step executes one instruction of thread tid. It returns the event
// describing the instruction and whether an instruction was retired.
// Blocked and halted threads return (nil, false); an instruction that
// parks the thread on a futex returns its event with Blocked set and
// retired == true (the wait itself counts as an executed instruction,
// matching how a futex syscall appears in a real trace).
func (m *Machine) Step(tid int) (*Event, bool) {
	t := m.Threads[tid]
	if t.State != StateRunning {
		return nil, false
	}
	blk := t.cur.rt.Blocks[t.cur.blk]
	in := &blk.Instrs[t.cur.idx]

	ev := &m.ev
	*ev = Event{Tid: tid, Instr: in, Block: blk, BlockEntry: t.cur.idx == 0}
	m.steps++

	advance := true // move to next instruction within block
	switch in.Op {
	case isa.OpNop, isa.OpPause:
		// nothing
	case isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIDiv, isa.OpIRem,
		isa.OpIAnd, isa.OpIOr, isa.OpIXor, isa.OpIShl, isa.OpIShr:
		b := t.R[in.B]
		if in.UseImm {
			b = in.Imm
		}
		t.R[in.Dst] = intALU(in.Op, t.R[in.A], b)
	case isa.OpIMov:
		if in.UseImm {
			t.R[in.Dst] = in.Imm
		} else {
			t.R[in.Dst] = t.R[in.A]
		}
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
		t.F[in.Dst] = floatALU(in.Op, t.F[in.A], t.F[in.B])
	case isa.OpFMov:
		if in.UseImm {
			t.F[in.Dst] = in.FImm
		} else {
			t.F[in.Dst] = t.F[in.A]
		}
	case isa.OpFMA:
		t.F[in.Dst] = float64(t.F[in.A]*t.F[in.B]) + t.F[in.Dst]
	case isa.OpFSqrt:
		t.F[in.Dst] = math.Sqrt(t.F[in.A])
	case isa.OpFCmp:
		if in.Cond.EvalFloat(t.F[in.A], t.F[in.B]) {
			t.R[in.Dst] = 1
		} else {
			t.R[in.Dst] = 0
		}
	case isa.OpICvtF:
		t.F[in.Dst] = float64(t.R[in.A])
	case isa.OpFCvtI:
		t.R[in.Dst] = fcvti(t.F[in.A])

	case isa.OpILoad:
		a := m.effAddr(t, in)
		ev.MemAddr = a * 8
		t.R[in.Dst] = int64(m.Mem[a])
	case isa.OpIStore:
		a := m.effAddr(t, in)
		ev.MemAddr = a * 8
		m.Mem[a] = uint64(t.R[in.B])
	case isa.OpFLoad:
		a := m.effAddr(t, in)
		ev.MemAddr = a * 8
		t.F[in.Dst] = math.Float64frombits(m.Mem[a])
	case isa.OpFStore:
		a := m.effAddr(t, in)
		ev.MemAddr = a * 8
		m.Mem[a] = math.Float64bits(t.F[in.B])
	case isa.OpAtomicAdd:
		a := m.effAddr(t, in)
		ev.MemAddr = a * 8
		old := int64(m.Mem[a])
		m.Mem[a] = uint64(old + t.R[in.B])
		t.R[in.Dst] = old
	case isa.OpCmpXchg:
		a := m.effAddr(t, in)
		ev.MemAddr = a * 8
		if int64(m.Mem[a]) == t.R[in.B] {
			m.Mem[a] = uint64(t.R[in.Dst])
			t.R[in.Dst] = 1
		} else {
			t.R[in.Dst] = 0
		}
	case isa.OpXchg:
		a := m.effAddr(t, in)
		ev.MemAddr = a * 8
		old := int64(m.Mem[a])
		m.Mem[a] = uint64(t.R[in.B])
		t.R[in.Dst] = old

	case isa.OpBr:
		t.cur.blk, t.cur.idx = in.Target, 0
		advance = false
		ev.Taken = true
	case isa.OpBrCond:
		b := t.R[in.B]
		if in.UseImm {
			b = in.Imm
		}
		if in.Cond.EvalInt(t.R[in.A], b) {
			t.cur.blk, ev.Taken = in.Target, true
		} else {
			t.cur.blk = in.Else
		}
		t.cur.idx = 0
		advance = false
	case isa.OpCall:
		t.stack = append(t.stack, frame{rt: t.cur.rt, blk: t.cur.blk, idx: t.cur.idx + 1})
		t.cur = frame{rt: in.Callee}
		advance = false
		ev.Taken = true
	case isa.OpRet:
		if len(t.stack) == 0 {
			throwf("exec: thread %d returned from entry routine %s", tid, t.cur.rt.Name)
		}
		t.cur = t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		advance = false
		ev.Taken = true
	case isa.OpHalt:
		t.State = StateHalted
		advance = false

	case isa.OpFutexWait:
		a := m.effAddr(t, in)
		ev.MemAddr = a * 8
		if int64(m.Mem[a]) == t.R[in.B] {
			t.State = StateBlocked
			t.futexAddr = a
			m.futexQ[a] = append(m.futexQ[a], tid)
			ev.Blocked = true
		}
	case isa.OpFutexWake:
		a := m.effAddr(t, in)
		ev.MemAddr = a * 8
		n := t.R[in.B]
		woken := 0
		q := m.futexQ[a]
		for len(q) > 0 && int64(woken) < n {
			wid := q[0]
			q = q[1:]
			w := m.Threads[wid]
			w.State = StateRunning
			w.cur.idx++ // resume past the FutexWait
			ev.Woken = append(ev.Woken, wid)
			woken++
		}
		if len(q) == 0 {
			delete(m.futexQ, a)
		} else {
			m.futexQ[a] = q
		}
		t.R[in.Dst] = int64(woken)
	case isa.OpSyscall:
		t.R[in.Dst] = m.OS.Syscall(m, tid, isa.SyscallNo(in.Imm), t.R[in.A])
	default:
		throwf("exec: unimplemented opcode %s", in.Op)
	}

	if advance && t.State != StateBlocked {
		t.cur.idx++
	}
	t.ICount++
	return ev, true
}

func (m *Machine) effAddr(t *Thread, in *isa.Instr) uint64 {
	a := uint64(t.R[in.A] + in.Imm)
	if a >= uint64(len(m.Mem)) {
		throwf("exec: thread %d: address %d out of range (mem %d words) at %s pc=%#x",
			t.ID, a, len(m.Mem), in.Op, in.Addr)
	}
	return a
}

func intALU(op isa.Op, a, b int64) int64 {
	switch op {
	case isa.OpIAdd:
		return a + b
	case isa.OpISub:
		return a - b
	case isa.OpIMul:
		return a * b
	case isa.OpIDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case isa.OpIRem:
		if b == 0 {
			return 0
		}
		return a % b
	case isa.OpIAnd:
		return a & b
	case isa.OpIOr:
		return a | b
	case isa.OpIXor:
		return a ^ b
	case isa.OpIShl:
		return a << (uint64(b) & 63)
	case isa.OpIShr:
		return int64(uint64(a) >> (uint64(b) & 63))
	}
	panic("exec: not an integer ALU op")
}

func floatALU(op isa.Op, a, b float64) float64 {
	switch op {
	case isa.OpFAdd:
		return a + b
	case isa.OpFSub:
		return a - b
	case isa.OpFMul:
		return a * b
	case isa.OpFDiv:
		return a / b
	}
	panic("exec: not a float ALU op")
}

// fcvti is OpFCvtI: f truncated toward zero, or math.MinInt64 for NaN, ±Inf
// and every f outside the int64 range. Go leaves int64(f) undefined there;
// this is what amd64 yields, so results do not depend on the host.
func fcvti(f float64) int64 {
	if f >= -1<<63 && f < 1<<63 {
		return int64(f)
	}
	return math.MinInt64
}
