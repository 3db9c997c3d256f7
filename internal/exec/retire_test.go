package exec

import (
	"math"

	"looppoint/internal/isa"
)

// The per-instruction tier, kept as the reference StepBlock and Run are
// tested against: Retire executes one instruction with its own op switch,
// and Step hands it over as an Event. Tests in other packages that need a
// per-instruction stream drive StepBlock with a budget of one.

// Retired is one instruction Retire executed.
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

// Event is a Retired instruction with its thread and the threads it woke.
type Event struct {
	Tid int
	Retired
	Woken []int // threads woken by a FutexWake
}

// Step executes one instruction of thread tid like Retire and returns it
// as an Event, with whether an instruction was retired: (nil, false) for a
// blocked or halted thread.
func (m *Machine) Step(tid int) (*Event, bool) {
	r, woken := m.Retire(tid)
	if r.Instr == nil {
		return nil, false
	}
	return &Event{Tid: tid, Retired: r, Woken: woken}, true
}

// Retire executes one instruction of thread tid and returns it with the
// threads a FutexWake woke; a blocked or halted thread retires nothing
// (Instr nil). A futex wait that parks the thread retires with Blocked set.
func (m *Machine) Retire(tid int) (r Retired, woken []int) {
	t := m.Threads[tid]
	if t.State != StateRunning {
		return Retired{}, nil
	}
	blk, idx := m.Fetch(t)
	in := &blk.Instrs[idx]
	r.Instr, r.Block, r.BlockEntry = in, blk, idx == 0

	switch in.Op {
	case isa.OpNop, isa.OpPause:
		// nothing
	case isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIDiv, isa.OpIRem,
		isa.OpIAnd, isa.OpIOr, isa.OpIXor, isa.OpIShl, isa.OpIShr:
		b := t.R[in.B]
		if in.UseImm {
			b = in.Imm
		}
		t.R[in.Dst] = IntALU(in.Op, t.R[in.A], b)
	case isa.OpIMov:
		if in.UseImm {
			t.R[in.Dst] = in.Imm
		} else {
			t.R[in.Dst] = t.R[in.A]
		}
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
		t.F[in.Dst] = FloatALU(in.Op, t.F[in.A], t.F[in.B])
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
		t.R[in.Dst] = FCvtI(t.F[in.A])

	case isa.OpILoad:
		a := m.Addr(t, in)
		r.MemAddr = a * 8
		t.R[in.Dst] = int64(m.Mem[a])
	case isa.OpIStore:
		a := m.Addr(t, in)
		r.MemAddr = a * 8
		m.Mem[a] = uint64(t.R[in.B])
	case isa.OpFLoad:
		a := m.Addr(t, in)
		r.MemAddr = a * 8
		t.F[in.Dst] = math.Float64frombits(m.Mem[a])
	case isa.OpFStore:
		a := m.Addr(t, in)
		r.MemAddr = a * 8
		m.Mem[a] = math.Float64bits(t.F[in.B])

	case isa.OpBr:
		t.Jump(in.Target)
		r.Taken = true
		return r, nil
	case isa.OpBrCond:
		b := t.R[in.B]
		if in.UseImm {
			b = in.Imm
		}
		if in.Cond.EvalInt(t.R[in.A], b) {
			t.Jump(in.Target)
			r.Taken = true
		} else {
			t.Jump(in.Else)
		}
		return r, nil
	default:
		r.MemAddr, woken = m.Rare(t, in, nil)
		r.Taken = in.Op == isa.OpCall || in.Op == isa.OpRet
		r.Blocked = t.State == StateBlocked
		return r, woken
	}
	t.Advance()
	return r, nil
}
