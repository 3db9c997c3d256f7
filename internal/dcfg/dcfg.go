// Package dcfg builds Dynamic Control-Flow Graphs (paper Section III-D):
// control-flow graphs recovered from an actual execution in which every
// edge carries a trip count. Routine sub-graphs are analyzed with
// immediate dominators to find natural loops; loop headers residing in
// the program's main image become the candidate region markers used by
// the BBV profiler ((PC, count) pairs, Section III-C).
package dcfg

import (
	"fmt"
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
	edges map[[2]int]*Edge
}

// Builder constructs a Graph while a program runs. It observes on the
// block tier (OnBlock) — cheap enough to ride the recording run itself,
// which is where core.Analyze attaches it. Its tests hold it to a
// per-instruction reference, OnInstr, fed one instruction at a time.
type Builder struct {
	g   *Graph
	cur []*Node   // the node each thread is in, nil right after a call
	stk [][]*Node // per-thread call-site stacks
	// nodes indexes the graph's nodes by Block.Global: the block tier's
	// hot-path lookup. Graph.Nodes stays the sparse public view; both
	// tiers create nodes through it, so they can share one builder.
	nodes []*Node
}

// NewBuilder creates a DCFG builder for a machine with nthreads threads.
func NewBuilder(p *isa.Program, nthreads int) *Builder {
	return &Builder{
		g:     &Graph{Prog: p, Nodes: make(map[int]*Node), edges: make(map[[2]int]*Edge)},
		cur:   make([]*Node, nthreads),
		stk:   make([][]*Node, nthreads),
		nodes: make([]*Node, p.NumBlocks()),
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
	// An event that enters nothing resumes the block the thread is in
	// (after a budget split, a futex wake, or a return to the call
	// site), so the cursor is already its node — the builder, like
	// OnInstr, must watch a thread from a block entry on. An event that
	// resumes a thread it is not watching (no run has one; a saved log
	// decoded on a resume may) adds nothing.
	n := b.cur[tid]
	if ev.Entries == 0 && n == nil {
		return
	}
	if ev.Entries > 0 {
		prev := n
		if n = b.nodes[blk.Global]; n == nil {
			n = b.g.node(blk)
			b.nodes[blk.Global] = n
		}
		n.Execs += ev.Entries
		n.ThreadExecs[tid] += ev.Entries
		if prev != nil && prev.Block.Routine == blk.Routine {
			b.addEdge(prev, blk, EdgeBranch, 1)
		}
		if ev.Entries > 1 {
			b.addEdge(n, blk, EdgeBranch, ev.Entries-1)
		}
		b.cur[tid] = n
	}
	// The event's last retired instruction; the index wraps when the
	// event coalesced further passes.
	li := ev.FirstIdx + int(ev.Instrs) - 1
	if li >= len(blk.Instrs) {
		li %= len(blk.Instrs)
	}
	last := &blk.Instrs[li]
	switch last.Op {
	case isa.OpCall:
		b.addEdge(n, last.Callee.Blocks[0], EdgeCall, 1)
		b.stk[tid] = append(b.stk[tid], n)
		b.cur[tid] = nil
	case isa.OpRet:
		k := len(b.stk[tid])
		if k == 0 {
			return
		}
		caller := b.stk[tid][k-1]
		b.stk[tid] = b.stk[tid][:k-1]
		b.addEdge(n, caller.Block, EdgeReturn, 1)
		b.cur[tid] = caller
	}
}

// addEdge is Graph.addEdge behind a scan of the source's short out-list:
// a known edge is found without hashing the pair.
func (b *Builder) addEdge(from *Node, to *isa.Block, kind EdgeKind, count uint64) {
	for _, e := range from.Out {
		if e.To == to.Global {
			e.Count += count
			return
		}
	}
	b.g.addEdge(from.Block, to, kind, count)
}

// Graph returns the constructed graph.
func (b *Builder) Graph() *Graph { return b.g }

func (g *Graph) node(blk *isa.Block) *Node {
	n, ok := g.Nodes[blk.Global]
	if !ok {
		n = &Node{Block: blk, ThreadExecs: make([]uint64, g.Prog.NumThreads())}
		g.Nodes[blk.Global] = n
	}
	return n
}

// addEdge records count traversals of the (from, to) edge. The first
// traversal fixes the edge's Kind and its position in the endpoint
// nodes' Out/In order.
func (g *Graph) addEdge(from, to *isa.Block, kind EdgeKind, count uint64) {
	key := [2]int{from.Global, to.Global}
	e, ok := g.edges[key]
	if !ok {
		e = &Edge{From: from.Global, To: to.Global, Kind: kind}
		g.edges[key] = e
		g.node(from).Out = append(g.node(from).Out, e)
		g.node(to).In = append(g.node(to).In, e)
	}
	e.Count += count
}

// Edges returns all edges sorted by (From, To) for stable iteration.
func (g *Graph) Edges() []*Edge {
	out := make([]*Edge, 0, len(g.edges))
	for _, e := range g.edges {
		out = append(out, e)
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
	return fmt.Sprintf("dcfg{%d nodes, %d edges}", len(g.Nodes), len(g.edges))
}
