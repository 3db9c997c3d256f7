package dcfg

import (
	"sort"

	"looppoint/internal/isa"
)

// Loop is a natural loop recovered from the dynamic control-flow graph.
type Loop struct {
	Header *isa.Block
	// Body holds the global block indices of all blocks in the loop,
	// including the header.
	Body map[int]bool
	// Trips is the total back-edge traversal count (iterations beyond
	// the first, summed over all executions and threads).
	Trips uint64
	// Entries is the number of times the loop was entered from outside.
	Entries uint64
	// Depth is the nesting depth (1 = outermost).
	Depth int
}

// LoopTable indexes the loops of a graph by header block.
type LoopTable struct {
	Loops    []*Loop
	byHeader map[int]*Loop
}

// IsHeader reports whether the block with the given global index heads a loop.
func (lt *LoopTable) IsHeader(global int) bool {
	_, ok := lt.byHeader[global]
	return ok
}

// MainImageHeaders returns the header blocks that live in non-sync images,
// sorted by address — the valid region-marker candidates (paper III-B:
// "we end a region only at a loop entry that is present in the main image
// of the application").
func (lt *LoopTable) MainImageHeaders() []*isa.Block {
	var out []*isa.Block
	for _, l := range lt.Loops {
		if !l.Header.Routine.Image.Sync {
			out = append(out, l.Header)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// StableMarkers selects the region-marker candidates among main-image
// loop headers: headers entered so frequently that thread-interleaving
// skew could move a (PC, count) boundary by a significant amount of work
// are excluded (the paper's stable-region requirement, Section V-A1 —
// inner loops iterated millions of times between synchronization points
// make poor markers; coarse outer-loop headers make stable ones).
//
// maxExecs is the largest acceptable total dynamic execution count for a
// marker block. If no header qualifies, all main-image headers are
// returned so that profiling can still proceed (the paper leaves
// automated stable-marker analysis to future work).
func (g *Graph) StableMarkers(lt *LoopTable, maxExecs uint64) []*isa.Block {
	var stable []*isa.Block
	for _, h := range lt.MainImageHeaders() {
		n := g.Nodes[h.Global]
		if n != nil && n.Execs <= maxExecs {
			stable = append(stable, h)
		}
	}
	if len(stable) == 0 {
		return lt.MainImageHeaders()
	}
	return stable
}

// FindLoops runs dominator analysis on each routine's executed sub-graph
// and returns the natural loops. Only intra-routine (branch) edges
// participate; call and return edges partition the graph into routines,
// mirroring how the paper's DCFG tool identifies routine boundaries from
// call edges before computing immediate dominators.
func (g *Graph) FindLoops() *LoopTable {
	lt := &LoopTable{byHeader: make(map[int]*Loop)}

	// Group executed nodes by routine.
	byRoutine := make(map[*isa.Routine][]*Node)
	for _, n := range g.Nodes {
		byRoutine[n.Block.Routine] = append(byRoutine[n.Block.Routine], n)
	}
	// Deterministic routine order.
	routines := make([]*isa.Routine, 0, len(byRoutine))
	for r := range byRoutine {
		routines = append(routines, r)
	}
	sort.Slice(routines, func(i, j int) bool {
		return routines[i].Blocks[0].Addr < routines[j].Blocks[0].Addr
	})

	for _, r := range routines {
		g.findRoutineLoops(r, lt)
	}
	sort.Slice(lt.Loops, func(i, j int) bool { return lt.Loops[i].Header.Addr < lt.Loops[j].Header.Addr })
	return lt
}

func (g *Graph) findRoutineLoops(r *isa.Routine, lt *LoopTable) {
	entry, ok := g.Nodes[r.Blocks[0].Global]
	if !ok {
		return // routine never executed from its entry
	}

	// Local numbering in reverse postorder over intra-routine edges.
	index := map[int]int{}
	var order []*Node // postorder
	var dfs func(n *Node)
	visited := map[int]bool{}
	dfs = func(n *Node) {
		visited[n.Block.Global] = true
		// Deterministic successor order.
		succs := intraSuccs(n, r)
		for _, s := range succs {
			sn := g.Nodes[s]
			if sn != nil && !visited[s] {
				dfs(sn)
			}
		}
		order = append(order, n)
	}
	dfs(entry)
	// Reverse postorder numbering.
	rpo := make([]*Node, len(order))
	for i, n := range order {
		rpo[len(order)-1-i] = n
	}
	for i, n := range rpo {
		index[n.Block.Global] = i
	}

	// Cooper–Harvey–Kennedy iterative dominators.
	idom := make([]int, len(rpo))
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	changed := true
	for changed {
		changed = false
		for i := 1; i < len(rpo); i++ {
			n := rpo[i]
			newIdom := -1
			for _, e := range n.In {
				if e.Kind != EdgeBranch {
					continue
				}
				p, ok := index[e.From]
				if !ok || idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(idom, newIdom, p)
				}
			}
			if newIdom != -1 && idom[i] != newIdom {
				idom[i] = newIdom
				changed = true
			}
		}
	}

	dominates := func(a, b int) bool { // does rpo index a dominate rpo index b
		for b != 0 {
			if b == a {
				return true
			}
			if idom[b] == -1 {
				return false
			}
			b = idom[b]
		}
		return a == 0
	}

	// Back edges and natural loop bodies.
	loops := map[int]*Loop{} // header global -> loop
	for _, n := range rpo {
		for _, e := range n.Out {
			if e.Kind != EdgeBranch {
				continue
			}
			u, okU := index[e.From]
			v, okV := index[e.To]
			if !okU || !okV || !dominates(v, u) {
				continue
			}
			headerGlobal := rpo[v].Block.Global
			l, ok := loops[headerGlobal]
			if !ok {
				l = &Loop{Header: rpo[v].Block, Body: map[int]bool{headerGlobal: true}}
				loops[headerGlobal] = l
			}
			l.Trips += e.Count
			// Natural loop body: nodes reaching the back edge source
			// without passing through the header.
			stack := []int{e.From}
			for len(stack) > 0 {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Body[w] {
					continue
				}
				l.Body[w] = true
				wn := g.Nodes[w]
				for _, in := range wn.In {
					if in.Kind != EdgeBranch {
						continue
					}
					if _, ok := index[in.From]; !ok {
						continue
					}
					if !l.Body[in.From] {
						stack = append(stack, in.From)
					}
				}
			}
		}
	}

	// Entry counts: header in-edges from outside the body.
	for _, l := range loops {
		hn := g.Nodes[l.Header.Global]
		for _, e := range hn.In {
			if e.Kind == EdgeBranch && !l.Body[e.From] {
				l.Entries += e.Count
			}
		}
	}

	// Nesting depth: loop A nests in B if A's header is in B's body.
	hdrs := make([]int, 0, len(loops))
	for h := range loops {
		hdrs = append(hdrs, h)
	}
	sort.Ints(hdrs)
	for _, h := range hdrs {
		l := loops[h]
		l.Depth = 1
		for _, h2 := range hdrs {
			if h2 == h {
				continue
			}
			if loops[h2].Body[h] && len(loops[h2].Body) > len(l.Body) {
				l.Depth++
			}
		}
		lt.Loops = append(lt.Loops, l)
		lt.byHeader[h] = l
	}
}

func intraSuccs(n *Node, r *isa.Routine) []int {
	var out []int
	for _, e := range n.Out {
		if e.Kind == EdgeBranch {
			out = append(out, e.To)
		}
	}
	sort.Ints(out)
	return out
}

func intersect(idom []int, a, b int) int {
	for a != b {
		for a > b {
			a = idom[a]
		}
		for b > a {
			b = idom[b]
		}
	}
	return a
}
