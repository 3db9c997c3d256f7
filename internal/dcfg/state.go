package dcfg

import (
	"fmt"
	"sort"

	"looppoint/internal/isa"
)

// The serializable form of a Graph, for the durable analysis's recovery
// point: the finished graph is saved beside the recording that built it,
// so a restarted worker gets it without recording again
// (core/progress.go). Restoring it into a fresh process must reproduce the
// exact in-memory structure, including the Node.Out/In insertion order the
// builder produced — downstream passes (loop finding, marker ranking)
// iterate those slices, so order is part of the byte-identity contract.
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

// RestoreGraph rebuilds a live Graph from its serialized state, validating
// every block and edge reference against the program and the adjacency
// lists against the edges: each edge sits exactly once on its source's Out
// list and once on its target's In list, so both endpoints are nodes and
// the loop finder walks an ordinary digraph.
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
	// listed[0][i] / listed[1][i]: edge i has been seen on an Out / In list.
	listed := [2][]bool{make([]bool, len(edges)), make([]bool, len(edges))}
	adjacency := func(ns *NodeState, side int, list []int) ([]*Edge, error) {
		var out []*Edge
		for _, ei := range list {
			if ei < 0 || ei >= len(edges) {
				return nil, fmt.Errorf("dcfg: node %d edge index %d outside %d edges", ns.Global, ei, len(edges))
			}
			e := edges[ei]
			if end := [2]int{e.From, e.To}[side]; end != ns.Global || listed[side][ei] {
				return nil, fmt.Errorf("dcfg: node %d lists edge %d -> %d on the wrong side or twice", ns.Global, e.From, e.To)
			}
			listed[side][ei] = true
			out = append(out, e)
		}
		return out, nil
	}
	for i := range st.Nodes {
		ns := &st.Nodes[i]
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
		var err error
		if n.Out, err = adjacency(ns, 0, ns.Out); err != nil {
			return nil, err
		}
		if n.In, err = adjacency(ns, 1, ns.In); err != nil {
			return nil, err
		}
		g.Nodes[ns.Global] = n
	}
	for i, e := range edges {
		if !listed[0][i] || !listed[1][i] {
			return nil, fmt.Errorf("dcfg: edge %d -> %d is missing from an endpoint's list", e.From, e.To)
		}
	}
	return g, nil
}
