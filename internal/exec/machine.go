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

// frame is a code position: instruction idx of block b of routine rt.
type frame struct {
	rt  *isa.Routine
	b   *isa.Block // rt.Blocks[b.ID]
	idx int
}

// entry is the first instruction of routine rt.
func entry(rt *isa.Routine) frame { return frame{rt: rt, b: rt.Blocks[0]} }

// jump moves the frame to the first instruction of its routine's block blk.
func (f *frame) jump(blk int) { f.b, f.idx = f.rt.Blocks[blk], 0 }

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
	return t.cur.b.Instrs[t.cur.idx].Addr
}

// Retired is one instruction Retire executed, as a timing model reads it.
// At four fields and 32 bytes it stays in registers, never in memory.
type Retired struct {
	Instr   *isa.Instr // nil if the thread could not run
	Block   *isa.Block
	MemAddr uint64 // byte address for memory ops (Instr.Op.IsMem)
	Flow
}

// Flow is how a retired instruction moved its thread.
type Flow struct {
	BlockEntry bool // first instruction of the block
	Taken      bool // a control transfer was taken
	Blocked    bool // the instruction parked the thread on a futex
}

// Event is a Retired instruction with its thread and the threads it woke:
// what Step hands to the per-instruction consumers, pinball's StepReplay
// feeding the trace writer and the OnInstr test oracles.
//
// Aliasing contract: a single machine-owned Event value is reused by
// every call to Step — the pointer Step returns is invalidated by the
// next Step on the same machine. Callers must consume the event before
// stepping again and must never retain the pointer or the Woken slice.
type Event struct {
	Tid int
	Retired
	Woken []int // threads woken by a FutexWake
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
		t := &Thread{ID: tid, cur: entry(p.Entries[tid])}
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

// Step executes one instruction of thread tid like Retire and returns it
// as the machine's Event (see its aliasing contract), with whether an
// instruction was retired: (nil, false) for a blocked or halted thread.
func (m *Machine) Step(tid int) (*Event, bool) {
	r, woken := m.Retire(tid)
	if r.Instr == nil {
		return nil, false
	}
	m.ev = Event{Tid: tid, Retired: r, Woken: woken}
	return &m.ev, true
}

// Retire executes one instruction of thread tid and returns it with the
// threads a FutexWake woke; a blocked or halted thread retires nothing
// (Instr nil). A futex wait that parks the thread retires with Blocked set,
// as a futex syscall appears in a real trace. Ops that touch the call
// stack, futex queues or OS run apart, in retireSync.
func (m *Machine) Retire(tid int) (r Retired, woken []int) {
	t := m.Threads[tid]
	if t.State != StateRunning {
		return Retired{}, nil
	}
	blk := t.cur.b
	in := &blk.Instrs[t.cur.idx]
	r.Instr, r.Block, r.BlockEntry = in, blk, t.cur.idx == 0
	m.steps++
	t.ICount++

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
		r.MemAddr = a * 8
		t.R[in.Dst] = int64(m.Mem[a])
	case isa.OpIStore:
		a := m.effAddr(t, in)
		r.MemAddr = a * 8
		m.Mem[a] = uint64(t.R[in.B])
	case isa.OpFLoad:
		a := m.effAddr(t, in)
		r.MemAddr = a * 8
		t.F[in.Dst] = math.Float64frombits(m.Mem[a])
	case isa.OpFStore:
		a := m.effAddr(t, in)
		r.MemAddr = a * 8
		m.Mem[a] = math.Float64bits(t.F[in.B])

	case isa.OpBr:
		t.cur.jump(in.Target)
		r.Taken = true
		return r, nil
	case isa.OpBrCond:
		b := t.R[in.B]
		if in.UseImm {
			b = in.Imm
		}
		if in.Cond.EvalInt(t.R[in.A], b) {
			t.cur.jump(in.Target)
			r.Taken = true
		} else {
			t.cur.jump(in.Else)
		}
		return r, nil
	default:
		r.MemAddr, r.Taken, r.Blocked, woken = m.retireSync(t, in)
		return r, woken
	}
	t.cur.idx++
	return r, nil
}

// retireSync is Retire for atomics, calls, returns, halts, futexes and
// syscalls; it moves the thread on itself.
func (m *Machine) retireSync(t *Thread, in *isa.Instr) (memAddr uint64, taken, blocked bool, woken []int) {
	advance := true // move to next instruction within block
	switch in.Op {
	case isa.OpAtomicAdd:
		a := m.effAddr(t, in)
		memAddr = a * 8
		old := int64(m.Mem[a])
		m.Mem[a] = uint64(old + t.R[in.B])
		t.R[in.Dst] = old
	case isa.OpCmpXchg:
		a := m.effAddr(t, in)
		memAddr = a * 8
		if int64(m.Mem[a]) == t.R[in.B] {
			m.Mem[a] = uint64(t.R[in.Dst])
			t.R[in.Dst] = 1
		} else {
			t.R[in.Dst] = 0
		}
	case isa.OpXchg:
		a := m.effAddr(t, in)
		memAddr = a * 8
		old := int64(m.Mem[a])
		m.Mem[a] = uint64(t.R[in.B])
		t.R[in.Dst] = old

	case isa.OpCall:
		t.stack = append(t.stack, frame{rt: t.cur.rt, b: t.cur.b, idx: t.cur.idx + 1})
		t.cur = entry(in.Callee)
		advance = false
		taken = true
	case isa.OpRet:
		if len(t.stack) == 0 {
			throwf("exec: thread %d returned from entry routine %s", t.ID, t.cur.rt.Name)
		}
		t.cur = t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		advance = false
		taken = true
	case isa.OpHalt:
		t.State = StateHalted
		advance = false

	case isa.OpFutexWait:
		a := m.effAddr(t, in)
		memAddr = a * 8
		if int64(m.Mem[a]) == t.R[in.B] {
			t.State = StateBlocked
			t.futexAddr = a
			m.futexQ[a] = append(m.futexQ[a], t.ID)
			blocked = true
			advance = false
		}
	case isa.OpFutexWake:
		a := m.effAddr(t, in)
		memAddr = a * 8
		n := t.R[in.B]
		q := m.futexQ[a]
		for len(q) > 0 && int64(len(woken)) < n {
			wid := q[0]
			q = q[1:]
			w := m.Threads[wid]
			w.State = StateRunning
			w.cur.idx++ // resume past the FutexWait
			woken = append(woken, wid)
		}
		if len(q) == 0 {
			delete(m.futexQ, a)
		} else {
			m.futexQ[a] = q
		}
		t.R[in.Dst] = int64(len(woken))
	case isa.OpSyscall:
		t.R[in.Dst] = m.OS.Syscall(m, t.ID, isa.SyscallNo(in.Imm), t.R[in.A])
	default:
		throwf("exec: unimplemented opcode %s", in.Op)
	}
	if advance {
		t.cur.idx++
	}
	return memAddr, taken, blocked, woken
}

func (m *Machine) effAddr(t *Thread, in *isa.Instr) uint64 {
	a := uint64(t.R[in.A] + in.Imm)
	if a >= uint64(len(m.Mem)) {
		throwf("exec: thread %d: address %d out of range (mem %d words) at %s pc=%#x",
			t.ID, a, len(m.Mem), in.Op, in.Addr)
	}
	return a
}

// intALU computes an integer ALU op, taking any op that is none of the
// first nine for IShr, so that it is small enough to inline.
func intALU(op isa.Op, a, b int64) int64 {
	switch op {
	case isa.OpIAdd:
		return a + b
	case isa.OpISub:
		return a - b
	case isa.OpIMul:
		return a * b
	case isa.OpIDiv, isa.OpIRem:
		if b == 0 {
			return 0
		}
		if op == isa.OpIDiv {
			return a / b
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
	}
	return int64(uint64(a) >> (uint64(b) & 63)) // isa.OpIShr
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
