// Package dcfg builds Dynamic Control-Flow Graphs (paper Section III-D):
// control-flow graphs recovered from an actual execution in which every
// edge carries a trip count. Routine sub-graphs are analyzed with
// immediate dominators to find natural loops; loop headers residing in
// the program's main image become the candidate region markers used by
// the BBV profiler ((PC, count) pairs, Section III-C).
package dcfg

import (
	"fmt"
	"slices"
	"sort"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// EdgeKind classifies a dynamic edge.
type EdgeKind uint8

// Edge kinds.
const (
	EdgeBranch EdgeKind = iota // intra-routine control transfer
	EdgeCall                   // call site block -> callee entry
	EdgeReturn                 // callee exit block -> caller block
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeBranch:
		return "branch"
	case EdgeCall:
		return "call"
	case EdgeReturn:
		return "return"
	}
	return "edge(?)"
}

// Edge is a dynamic control-flow edge with a trip count.
type Edge struct {
	From, To int // global block indices
	Kind     EdgeKind
	Count    uint64
}

// Node is a basic block observed during execution.
type Node struct {
	Block *isa.Block
	Execs uint64 // times the block was entered (all threads)
	// ThreadExecs is the per-thread entry count (index = thread ID).
	ThreadExecs []uint64
	Out         []*Edge
	In          []*Edge
}

// Symmetric reports whether every one of nthreads threads entered the
// block the same non-zero number of times — the signature of a worker
// loop all threads execute in lockstep episodes (e.g. a timestep header
// entered once per thread per step). Symmetric headers fire in N-hit
// bursts under natural scheduling, so only episode-leader hit counts
// (count ≡ 1 mod N) make stable (PC, count) region boundaries.
func (n *Node) Symmetric(nthreads int) bool {
	if len(n.ThreadExecs) < nthreads || nthreads < 2 {
		return false
	}
	first := n.ThreadExecs[0]
	if first == 0 {
		return false
	}
	for _, c := range n.ThreadExecs[:nthreads] {
		if c != first {
			return false
		}
	}
	return true
}

// Graph is the dynamic control-flow graph of one execution.
type Graph struct {
	Prog  *isa.Program
	Nodes map[int]*Node // keyed by global block index
}

// Builder constructs a Graph from a run's block events: a recording's block
// log (ReadLog, where core.Analyze builds its graph) or events handed to
// OnBlock. Its state is dense, by Block.Global; Graph turns it into nodes
// and edges. Its tests hold it to a per-instruction reference, OnInstr.
type Builder struct {
	prog    *isa.Program
	blocks  []*isa.Block   // by Global
	routine []*isa.Routine // by Global
	// plain marks the blocks that contain no call and do not end in a
	// return: a whole pass of one is an entry and nothing else.
	plain  []bool
	texecs []uint64 // by tid*len(blocks) + Global: entries per thread
	// The edges, indexed by from*len(blocks) + to (17 KB at the 44 blocks of the
	// largest registered workload): traversals, and the kind the first one
	// fixed (EdgeBranch is the zero kind). order lists the traversed ones
	// in first-traversal order.
	count []uint64
	kind  []EdgeKind
	order []int32
	// Per thread: the block it is in (-1 before its first entry and right
	// after a call), and its call-site blocks.
	cur []int32
	stk [][]int32
}

// NewBuilder creates a DCFG builder for a machine with nthreads threads.
func NewBuilder(p *isa.Program, nthreads int) *Builder {
	nb := p.NumBlocks()
	b := &Builder{
		prog:    p,
		blocks:  p.Blocks(),
		routine: make([]*isa.Routine, nb),
		plain:   make([]bool, nb),
		texecs:  make([]uint64, p.NumThreads()*nb),
		count:   make([]uint64, nb*nb),
		kind:    make([]EdgeKind, nb*nb),
		cur:     make([]int32, nthreads),
		stk:     make([][]int32, nthreads),
	}
	for g, blk := range b.blocks {
		b.routine[g] = blk.Routine
		b.plain[g] = blk.Instrs[len(blk.Instrs)-1].Op != isa.OpRet &&
			!slices.ContainsFunc(blk.Instrs, func(in isa.Instr) bool { return in.Op == isa.OpCall })
	}
	for tid := range b.cur {
		b.cur[tid] = -1
	}
	return b
}

// ReadLog reads a recording's block log: a common record of a plain block
// is its entry, taken here; every other record goes to OnBlock.
func (b *Builder) ReadLog(l *exec.BlockLog) {
	r := l.Reader()
	for {
		rec, tid := r.Records()
		cur := b.cur[tid]
		for {
			g, rest, ok := exec.CommonRecord(rec, b.plain)
			if !ok {
				break
			}
			rec = rest
			b.enter(tid, cur, int32(g), 1)
			cur = int32(g)
		}
		b.cur[tid] = cur
		ev := r.Next(rec)
		if ev == nil {
			return
		}
		b.OnBlock(ev)
	}
}

// enter is the per-event step: thread tid, in block prev (-1: none), enters
// block g entries times, first over a branch edge from prev if both are of
// one routine; the caller counts the self-loop and moves the cursor to g.
func (b *Builder) enter(tid int, prev, g int32, entries uint64) {
	b.texecs[tid*len(b.blocks)+int(g)] += entries
	if prev >= 0 && b.routine[prev] == b.routine[g] {
		// addEdge(prev, g, EdgeBranch, 1), spelt out so that enter inlines.
		k := int(prev)*len(b.blocks) + int(g)
		if b.count[k] == 0 {
			b.order = append(b.order, int32(k))
		}
		b.count[k]++
	}
}

// OnBlock implements exec.BlockObserver, producing the graph OnInstr
// would from the same execution. It relies on three BlockEvent
// guarantees: an event stays inside one block; Entries counts the passes
// that began at instruction 0, of which only the first can arrive from
// another block (a batch re-enters its block solely through the block's
// own self-loop terminator); and a call or return always ends its event,
// so it can only be the event's last retired instruction.
func (b *Builder) OnBlock(ev *exec.BlockEvent) {
	tid, blk := ev.Tid, ev.Block
	g := int32(blk.Global)
	// An event that enters nothing resumes the block the thread is in
	// (after a budget split, a futex wake, or a return to the call
	// site), so the cursor is already its node — the builder, like
	// OnInstr, must watch a thread from a block entry on. An event that
	// resumes a thread it is not watching (no run has one; a saved log
	// decoded on a resume may) adds nothing.
	if ev.Entries == 0 && b.cur[tid] < 0 {
		return
	}
	if ev.Entries > 0 {
		b.enter(tid, b.cur[tid], g, ev.Entries)
		b.cur[tid] = g
		if ev.Entries > 1 {
			b.addEdge(g, g, EdgeBranch, ev.Entries-1)
		}
	}
	if b.plain[g] {
		return
	}
	// The event's last retired instruction; the index wraps when the
	// event coalesced further passes.
	li := ev.FirstIdx + int(ev.Instrs) - 1
	if li >= len(blk.Instrs) {
		li %= len(blk.Instrs)
	}
	n := b.cur[tid]
	switch last := &blk.Instrs[li]; last.Op {
	case isa.OpCall:
		b.addEdge(n, int32(last.Callee.Blocks[0].Global), EdgeCall, 1)
		b.stk[tid] = append(b.stk[tid], n)
		b.cur[tid] = -1
	case isa.OpRet:
		k := len(b.stk[tid])
		if k == 0 {
			return
		}
		caller := b.stk[tid][k-1]
		b.stk[tid] = b.stk[tid][:k-1]
		b.addEdge(n, caller, EdgeReturn, 1)
		b.cur[tid] = caller
	}
}

// addEdge records count traversals of the (from, to) edge. The first
// traversal fixes the edge's Kind and its place in first-traversal order.
func (b *Builder) addEdge(from, to int32, kind EdgeKind, count uint64) {
	k := int(from)*len(b.blocks) + int(to)
	if b.count[k] == 0 {
		b.order = append(b.order, int32(k))
		b.kind[k] = kind
	}
	b.count[k] += count
}

// Graph builds the graph of the events so far: a node for every block
// entered or at either end of an edge, and each node's Out and In edges in
// first-traversal order.
func (b *Builder) Graph() *Graph {
	nt := b.prog.NumThreads()
	g := &Graph{Prog: b.prog, Nodes: make(map[int]*Node)}
	node := func(gl int) *Node {
		n := g.Nodes[gl]
		if n == nil {
			n = &Node{Block: b.blocks[gl], ThreadExecs: make([]uint64, nt)}
			for tid := range nt {
				n.ThreadExecs[tid] = b.texecs[tid*len(b.blocks)+gl]
				n.Execs += n.ThreadExecs[tid]
			}
			g.Nodes[gl] = n
		}
		return n
	}
	for gl := range b.blocks {
		if node(gl).Execs == 0 {
			delete(g.Nodes, gl) // unless an edge ends there, below
		}
	}
	for _, k := range b.order {
		e := &Edge{From: int(k) / len(b.blocks), To: int(k) % len(b.blocks), Kind: b.kind[k], Count: b.count[k]}
		node(e.From).Out = append(node(e.From).Out, e)
		node(e.To).In = append(node(e.To).In, e)
	}
	return g
}

// Edges returns all edges sorted by (From, To) for stable iteration.
func (g *Graph) Edges() []*Edge {
	var out []*Edge
	for _, n := range g.Nodes {
		out = append(out, n.Out...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

func (g *Graph) String() string {
	return fmt.Sprintf("dcfg{%d nodes, %d edges}", len(g.Nodes), len(g.Edges()))
}
