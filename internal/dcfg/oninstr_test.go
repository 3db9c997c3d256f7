package dcfg

import (
	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// OnInstr is the per-instruction reference the block tier is tested
// against. It takes one instruction as an event of one (StepBlock with a
// budget of one): ev.Block.Instrs[ev.FirstIdx], a block entry when
// ev.Entries is 1.
func (b *Builder) OnInstr(ev *exec.BlockEvent) {
	tid := ev.Tid
	in := &ev.Block.Instrs[ev.FirstIdx]
	if ev.Entries > 0 {
		n := b.g.node(ev.Block)
		n.Execs++
		n.ThreadExecs[tid]++
		if prev := b.cur[tid]; prev != nil && prev.Block.Routine == ev.Block.Routine {
			b.g.addEdge(prev.Block, ev.Block, EdgeBranch, 1)
		}
		b.cur[tid] = n
	}
	switch in.Op {
	case isa.OpCall:
		caller := b.cur[tid]
		callee := in.Callee.Blocks[0]
		b.g.addEdge(caller.Block, callee, EdgeCall, 1)
		b.stk[tid] = append(b.stk[tid], caller)
		b.cur[tid] = nil // callee entry must not become an intra-routine edge
	case isa.OpRet:
		n := len(b.stk[tid])
		if n == 0 {
			return
		}
		caller := b.stk[tid][n-1]
		b.stk[tid] = b.stk[tid][:n-1]
		if b.cur[tid] != nil {
			b.g.addEdge(b.cur[tid].Block, caller.Block, EdgeReturn, 1)
		}
		// Execution resumes mid-block in the caller; the next
		// intra-routine edge hangs off the call-site block.
		b.cur[tid] = caller
	}
}
