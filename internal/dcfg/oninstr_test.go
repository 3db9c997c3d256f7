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
	tid, g := ev.Tid, int32(ev.Block.Global)
	in := &ev.Block.Instrs[ev.FirstIdx]
	if ev.Entries > 0 {
		b.texecs[tid*len(b.blocks)+int(g)]++
		if prev := b.cur[tid]; prev >= 0 && b.blocks[prev].Routine == ev.Block.Routine {
			b.addEdge(prev, g, EdgeBranch, 1)
		}
		b.cur[tid] = g
	}
	switch in.Op {
	case isa.OpCall:
		caller := b.cur[tid]
		b.addEdge(caller, int32(in.Callee.Blocks[0].Global), EdgeCall, 1)
		b.stk[tid] = append(b.stk[tid], caller)
		b.cur[tid] = -1 // callee entry must not become an intra-routine edge
	case isa.OpRet:
		n := len(b.stk[tid])
		if n == 0 {
			return
		}
		caller := b.stk[tid][n-1]
		b.stk[tid] = b.stk[tid][:n-1]
		if b.cur[tid] >= 0 {
			b.addEdge(b.cur[tid], caller, EdgeReturn, 1)
		}
		// Execution resumes mid-block in the caller; the next
		// intra-routine edge hangs off the call-site block.
		b.cur[tid] = caller
	}
}
