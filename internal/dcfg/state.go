package dcfg

import (
	"fmt"
	"sort"

	"looppoint/internal/isa"
)

// The serializable form of a Graph, for durable mid-analysis progress
// files: every epoch file of the BBV phase carries the finished graph, so
// a restarted worker gets it without re-recording. Restoring it into a
// fresh process must reproduce the exact in-memory structure, including
// the Node.Out/In insertion order the builder produced — downstream
// passes (loop finding, marker ranking) iterate those slices, so order is
// part of the byte-identity contract.
//
// Blocks are referenced by their global index, which is stable across
// processes for the same program; restore validates every index against
// the program and returns an error (the caller classifies it as
// corruption) rather than ever panicking on hostile input.

// EdgeState is one edge of a serialized graph.
type EdgeState struct {
	From, To int
	Kind     uint8
	Count    uint64
}

// NodeState is one node of a serialized graph. Out and In index into
// GraphState.Edges, preserving the insertion order of the live Node.
type NodeState struct {
	Global      int
	Execs       uint64
	ThreadExecs []uint64
	Out         []int
	In          []int
}

// GraphState is the serializable form of a Graph. Nodes are sorted by
// global block index; Edges are enumerated in per-node Out order, which
// covers every edge exactly once.
type GraphState struct {
	Nodes []NodeState
	Edges []EdgeState
}

// State captures the graph's serializable form. The state shares no
// structure with the live graph.
func (g *Graph) State() *GraphState {
	globals := make([]int, 0, len(g.Nodes))
	for gi := range g.Nodes {
		globals = append(globals, gi)
	}
	sort.Ints(globals)
	st := &GraphState{}
	ix := make(map[*Edge]int, len(g.edges))
	for _, gi := range globals {
		for _, e := range g.Nodes[gi].Out {
			ix[e] = len(st.Edges)
			st.Edges = append(st.Edges, EdgeState{From: e.From, To: e.To, Kind: uint8(e.Kind), Count: e.Count})
		}
	}
	for _, gi := range globals {
		n := g.Nodes[gi]
		ns := NodeState{
			Global:      gi,
			Execs:       n.Execs,
			ThreadExecs: append([]uint64(nil), n.ThreadExecs...),
		}
		for _, e := range n.Out {
			ns.Out = append(ns.Out, ix[e])
		}
		for _, e := range n.In {
			ns.In = append(ns.In, ix[e])
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// RestoreGraph rebuilds a live Graph from its serialized state,
// validating every block and edge reference against the program.
func RestoreGraph(p *isa.Program, st *GraphState) (*Graph, error) {
	blocks := p.Blocks()
	g := &Graph{Prog: p, Nodes: make(map[int]*Node, len(st.Nodes)), edges: make(map[[2]int]*Edge, len(st.Edges))}
	edges := make([]*Edge, len(st.Edges))
	for i, es := range st.Edges {
		if es.From < 0 || es.From >= len(blocks) || es.To < 0 || es.To >= len(blocks) {
			return nil, fmt.Errorf("dcfg: edge %d references block outside program (%d -> %d of %d)", i, es.From, es.To, len(blocks))
		}
		if EdgeKind(es.Kind) > EdgeReturn {
			return nil, fmt.Errorf("dcfg: edge %d has unknown kind %d", i, es.Kind)
		}
		key := [2]int{es.From, es.To}
		if _, dup := g.edges[key]; dup {
			return nil, fmt.Errorf("dcfg: duplicate edge %d -> %d in state", es.From, es.To)
		}
		e := &Edge{From: es.From, To: es.To, Kind: EdgeKind(es.Kind), Count: es.Count}
		edges[i] = e
		g.edges[key] = e
	}
	for _, ns := range st.Nodes {
		if ns.Global < 0 || ns.Global >= len(blocks) {
			return nil, fmt.Errorf("dcfg: node references block %d outside program of %d blocks", ns.Global, len(blocks))
		}
		if _, dup := g.Nodes[ns.Global]; dup {
			return nil, fmt.Errorf("dcfg: duplicate node %d in state", ns.Global)
		}
		n := &Node{
			Block:       blocks[ns.Global],
			Execs:       ns.Execs,
			ThreadExecs: append([]uint64(nil), ns.ThreadExecs...),
		}
		for _, ei := range ns.Out {
			if ei < 0 || ei >= len(edges) {
				return nil, fmt.Errorf("dcfg: node %d out-edge index %d outside %d edges", ns.Global, ei, len(edges))
			}
			n.Out = append(n.Out, edges[ei])
		}
		for _, ei := range ns.In {
			if ei < 0 || ei >= len(edges) {
				return nil, fmt.Errorf("dcfg: node %d in-edge index %d outside %d edges", ns.Global, ei, len(edges))
			}
			n.In = append(n.In, edges[ei])
		}
		g.Nodes[ns.Global] = n
	}
	return g, nil
}
