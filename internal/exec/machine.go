// Package exec provides the functional execution engine for mini-ISA
// programs: an interpreter for N threads over a shared flat memory, with
// block-granular observers, futex semantics, an OS model with recordable
// side effects, and deterministic schedulers (round-robin and the paper's
// flow-control scheduler, Section III-B).
package exec

import (
	"fmt"
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

// Machine executes a linked program.
type Machine struct {
	Prog    *isa.Program
	Mem     []uint64
	Threads []*Thread
	OS      OS

	blockObservers []BlockObserver
	futexQ         map[uint64][]int // word address -> waiting thread IDs (FIFO)
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

// Fetch counts the next instruction of running thread t as retired and
// returns where it stands: blk.Instrs[idx], a block entry when idx is 0.
// This is the instruction tier, which the timing loop drives: the caller
// executes the instruction itself with the helpers below (IntALU,
// FloatALU, FCvtI and Addr compute; Advance and Jump move the thread on),
// or hands an op that touches the call stack, futex queues or OS to Rare.
func (m *Machine) Fetch(t *Thread) (blk *isa.Block, idx int) {
	m.steps++
	t.ICount++
	return t.cur.b, t.cur.idx
}

// Advance moves thread t to the next instruction of its block.
func (t *Thread) Advance() { t.cur.idx++ }

// Jump moves thread t to the first instruction of block blk of its routine.
func (t *Thread) Jump(blk int) { t.cur.jump(blk) }

// Rare executes instruction in of thread t, the one at t's position, when
// it is an atomic, a call, a return, a halt, a futex op or a syscall, and
// moves the thread on itself. It returns the byte address an atomic or
// futex op touches, and woken with the threads a FutexWake woke appended;
// a FutexWait that parks the thread leaves it StateBlocked, a halt
// StateHalted. It is the one copy of these ops' semantics: the timing
// loop's out-of-line path and StepBlock's.
func (m *Machine) Rare(t *Thread, in *isa.Instr, woken []int) (memAddr uint64, _ []int) {
	advance := true // move to next instruction within block
	switch in.Op {
	case isa.OpAtomicAdd:
		a := m.Addr(t, in)
		memAddr = a * 8
		old := int64(m.Mem[a])
		m.Mem[a] = uint64(old + t.R[in.B])
		t.R[in.Dst] = old
	case isa.OpCmpXchg:
		a := m.Addr(t, in)
		memAddr = a * 8
		if int64(m.Mem[a]) == t.R[in.B] {
			m.Mem[a] = uint64(t.R[in.Dst])
			t.R[in.Dst] = 1
		} else {
			t.R[in.Dst] = 0
		}
	case isa.OpXchg:
		a := m.Addr(t, in)
		memAddr = a * 8
		old := int64(m.Mem[a])
		m.Mem[a] = uint64(t.R[in.B])
		t.R[in.Dst] = old

	case isa.OpCall:
		t.stack = append(t.stack, frame{rt: t.cur.rt, b: t.cur.b, idx: t.cur.idx + 1})
		t.cur = entry(in.Callee)
		advance = false
	case isa.OpRet:
		if len(t.stack) == 0 {
			throwf("exec: thread %d returned from entry routine %s", t.ID, t.cur.rt.Name)
		}
		t.cur = t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		advance = false
	case isa.OpHalt:
		t.State = StateHalted
		advance = false

	case isa.OpFutexWait:
		a := m.Addr(t, in)
		memAddr = a * 8
		if int64(m.Mem[a]) == t.R[in.B] {
			t.State = StateBlocked
			t.futexAddr = a
			m.futexQ[a] = append(m.futexQ[a], t.ID)
			advance = false
		}
	case isa.OpFutexWake:
		a := m.Addr(t, in)
		memAddr = a * 8
		n, before := t.R[in.B], len(woken)
		q := m.futexQ[a]
		for len(q) > 0 && int64(len(woken)-before) < n {
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
		t.R[in.Dst] = int64(len(woken) - before)
	case isa.OpSyscall:
		t.R[in.Dst] = m.OS.Syscall(m, t.ID, isa.SyscallNo(in.Imm), t.R[in.A])
	default:
		throwf("exec: unimplemented opcode %s", in.Op)
	}
	if advance {
		t.cur.idx++
	}
	return memAddr, woken
}

// Addr is the word address memory instruction in of thread t reads or
// writes. An address outside memory is a machine fault, raised out of line
// so that the check inlines.
func (m *Machine) Addr(t *Thread, in *isa.Instr) uint64 {
	a := uint64(t.R[in.A] + in.Imm)
	if a >= uint64(len(m.Mem)) {
		panic(badAddr{t.ID, a, len(m.Mem), in})
	}
	return a
}

// badAddr is the fault of an address outside memory: Recover makes its
// message, so that Addr inlines.
type badAddr struct {
	tid   int
	a     uint64
	words int
	in    *isa.Instr
}

func (b badAddr) fault() *ExecError {
	return &ExecError{Msg: fmt.Sprintf("exec: thread %d: address %d out of range (mem %d words) at %s pc=%#x",
		b.tid, b.a, b.words, b.in.Op, b.in.Addr)}
}

// IntALU computes an integer ALU op, taking any op that is none of the
// first nine for IShr, so that it is small enough to inline.
func IntALU(op isa.Op, a, b int64) int64 {
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

// FloatALU computes a float ALU op, taking any op that is none of the
// first three for FDiv, so that it is small enough to inline.
func FloatALU(op isa.Op, a, b float64) float64 {
	switch op {
	case isa.OpFAdd:
		return a + b
	case isa.OpFSub:
		return a - b
	case isa.OpFMul:
		return a * b
	}
	return a / b // isa.OpFDiv
}

// FCvtI is OpFCvtI: f truncated toward zero, or math.MinInt64 for NaN, ±Inf
// and every f outside the int64 range. Go leaves int64(f) undefined there;
// this is what amd64 yields, so results do not depend on the host.
func FCvtI(f float64) int64 {
	if f >= -1<<63 && f < 1<<63 {
		return int64(f)
	}
	return math.MinInt64
}
