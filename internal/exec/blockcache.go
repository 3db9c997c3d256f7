package exec

import (
	"math"

	"looppoint/internal/isa"
)

// StepBlock executes up to budget instructions of thread tid within its
// current basic block (coalescing consecutive self-loop passes) and
// fills ev with the batched result. It returns false without touching ev
// if the thread cannot run or budget is zero.
//
// An event ends at the earliest of: the budget; control leaving the
// block (including calls and returns); a conditional terminator whose
// outcome cannot be coalesced; a futex wait that parks the thread; a
// futex wake that unparks at least one thread; or a halt. The block's
// execution-shape facts (isa.Block.ALULen, SelfLoop) are fixed at Link.
// Thread state, memory, futex queues, OS interaction, ICount and
// the machine step counter advance exactly as the same instructions
// executed one at a time would, except that ICount/step totals are
// published at event end rather than per instruction. That equivalence
// is pinned against a per-instruction reference (Step) in the package
// tests.
func (m *Machine) StepBlock(tid int, budget uint64, ev *BlockEvent) bool {
	t := m.Threads[tid]
	if t.State != StateRunning || budget == 0 {
		return false
	}
	blk := t.cur.b
	cb := blk.ID
	aluLen := blk.ALULen

	ev.reset(tid, blk, t.cur.idx)
	if t.cur.idx == 0 {
		ev.Entries = 1
	}

	L := len(blk.Instrs)
	var retired uint64
passes:
	for {
		idx := t.cur.idx
		if idx < aluLen {
			n := aluLen - idx
			if rem := budget - retired; uint64(n) > rem {
				n = int(rem)
			}
			execComputeRun(t, blk.Instrs[idx:idx+n])
			idx += n
			t.cur.idx = idx
			retired += uint64(n)
			if idx < aluLen { // budget exhausted inside the run
				break passes
			}
		}
		for idx < L {
			if retired == budget {
				t.cur.idx = idx
				break passes
			}
			in := &blk.Instrs[idx]
			retired++
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
				t.R[in.Dst] = int64(m.Mem[a])
			case isa.OpIStore:
				a := m.Addr(t, in)
				m.Mem[a] = uint64(t.R[in.B])
			case isa.OpFLoad:
				a := m.Addr(t, in)
				t.F[in.Dst] = math.Float64frombits(m.Mem[a])
			case isa.OpFStore:
				a := m.Addr(t, in)
				m.Mem[a] = math.Float64bits(t.F[in.B])
			case isa.OpBr:
				t.cur.jump(in.Target)
				if in.Target == cb && retired < budget {
					ev.Entries++
					continue passes
				}
				break passes
			case isa.OpBrCond:
				b := t.R[in.B]
				if in.UseImm {
					b = in.Imm
				}
				taken := in.Cond.EvalInt(t.R[in.A], b)
				nxt := in.Else
				if taken {
					nxt = in.Target
				}
				t.cur.jump(nxt)
				if nxt == cb && blk.SelfLoop && retired < budget {
					ev.Entries++
					continue passes
				}
				break passes
			case isa.OpAtomicAdd, isa.OpCmpXchg, isa.OpXchg, isa.OpCall, isa.OpRet, isa.OpHalt,
				isa.OpFutexWait, isa.OpFutexWake, isa.OpSyscall:
				_, ev.Woken = m.Rare(t, in, ev.Woken)
				if t.State != StateRunning || len(ev.Woken) > 0 || in.Op == isa.OpCall || in.Op == isa.OpRet {
					// A park, a halt, a wake that woke a thread, a call
					// or a return ends the event where Rare left the
					// thread.
					ev.Blocked = t.State == StateBlocked
					break passes
				}
				idx = t.cur.idx
				continue
			default:
				throwf("exec: unimplemented opcode %s", in.Op)
			}
			idx++
			t.cur.idx = idx
		}
	}
	ev.Instrs = retired
	t.ICount += retired
	m.steps += retired
	return true
}

// execComputeRun retires a straight-line run of register-only compute
// instructions. This is the interpreter's tightest loop: no event
// traffic, no memory checks, no control flow.
func execComputeRun(t *Thread, instrs []isa.Instr) {
	for i := range instrs {
		in := &instrs[i]
		switch in.Op {
		case isa.OpNop, isa.OpPause:
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
		}
	}
}
