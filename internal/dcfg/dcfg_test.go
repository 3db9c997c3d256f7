package dcfg

import (
	"testing"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// buildNestedLoops builds a single-threaded program with a doubly nested
// loop in the main image (outer×inner iterations) plus a helper routine
// containing a third loop in a sync image, called once per outer
// iteration.
func buildNestedLoops(t *testing.T, outer, inner, lib int64) (*isa.Program, *isa.Block, *isa.Block, *isa.Block) {
	t.Helper()
	p := isa.NewProgram("loops", 1)
	main := p.AddImage("main", false)
	libimg := p.AddImage("libsync", true)

	libRt := libimg.NewRoutine("lib_spin")
	lEntry := libRt.NewBlock("entry")
	lLoop := libRt.NewBlock("loop")
	lDone := libRt.NewBlock("done")
	lEntry.IMovI(10, 0)
	lEntry.Br(lLoop)
	lLoop.Pause()
	lLoop.IOpI(isa.OpIAdd, 10, 10, 1)
	lLoop.BrCondI(isa.CondLT, 10, lib, lLoop, lDone)
	lDone.Ret()

	r := main.NewRoutine("main")
	entry := r.NewBlock("entry")
	oHead := r.NewBlock("outer_head")
	iHead := r.NewBlock("inner_head")
	iBody := r.NewBlock("inner_body")
	oLatch := r.NewBlock("outer_latch")
	done := r.NewBlock("done")

	entry.IMovI(0, 0) // i
	entry.Br(oHead)
	oHead.IMovI(1, 0) // j
	oHead.Call(libRt)
	oHead.Br(iHead)
	iHead.BrCondI(isa.CondLT, 1, inner, iBody, oLatch)
	iBody.IOpI(isa.OpIAdd, 2, 2, 1)
	iBody.IOpI(isa.OpIAdd, 1, 1, 1)
	iBody.Br(iHead)
	oLatch.IOpI(isa.OpIAdd, 0, 0, 1)
	oLatch.BrCondI(isa.CondLT, 0, outer, oHead, done)
	done.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p, oHead, iHead, lLoop
}

func runWithDCFG(t *testing.T, p *isa.Program) *Graph {
	t.Helper()
	m := exec.NewMachine(p, 1)
	b := NewBuilder(p, p.NumThreads())
	m.AddBlockObserver(b)
	if err := m.Run(exec.RunOpts{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return b.Graph()
}

func TestFindLoopsNested(t *testing.T) {
	p, oHead, iHead, lLoop := buildNestedLoops(t, 5, 7, 3)
	g := runWithDCFG(t, p)
	lt := g.FindLoops()

	ol, ok := lt.Lookup(oHead.Global)
	if !ok {
		t.Fatal("outer loop header not identified")
	}
	il, ok := lt.Lookup(iHead.Global)
	if !ok {
		t.Fatal("inner loop header not identified")
	}
	ll, ok := lt.Lookup(lLoop.Global)
	if !ok {
		t.Fatal("library loop header not identified")
	}

	// Trip counts: outer back edge taken outer-1 times... the latch
	// branches back while i < outer, so outer-1 back-edge trips after
	// the first entry; inner loop trips = outer * inner (iHead->iBody
	// is the loop-entry edge; back edge iBody->iHead runs inner times
	// per outer iteration).
	if ol.Trips != 4 {
		t.Errorf("outer trips = %d, want 4", ol.Trips)
	}
	if il.Trips != 5*7 {
		t.Errorf("inner trips = %d, want 35", il.Trips)
	}
	if ll.Trips != 5*2 {
		t.Errorf("lib trips = %d, want 10", ll.Trips)
	}

	// Nesting: inner loop body is contained in outer loop body.
	for blk := range il.Body {
		if !ol.Body[blk] {
			t.Errorf("inner-loop block %d not inside outer loop body", blk)
		}
	}
	if ol.Depth != 1 || il.Depth != 2 {
		t.Errorf("depths: outer=%d inner=%d, want 1, 2", ol.Depth, il.Depth)
	}

	// Marker candidates must exclude the sync-image loop.
	hdrs := lt.MainImageHeaders()
	for _, h := range hdrs {
		if h.Routine.Image.Sync {
			t.Errorf("sync-image header %s offered as marker", h)
		}
	}
	if len(hdrs) != 2 {
		t.Errorf("main-image headers = %d, want 2", len(hdrs))
	}
}

func TestHeaderDominatesBody(t *testing.T) {
	// Property: every natural-loop body block is reachable only through
	// its header — approximated here by checking the header is in the
	// body and all in-edges to body blocks (other than into the header)
	// come from within the body.
	p, _, _, _ := buildNestedLoops(t, 3, 4, 2)
	g := runWithDCFG(t, p)
	lt := g.FindLoops()
	if len(lt.Loops) == 0 {
		t.Fatal("no loops found")
	}
	for _, l := range lt.Loops {
		if !l.Body[l.Header.Global] {
			t.Errorf("loop %s: header not in body", l.Header)
		}
		for blk := range l.Body {
			if blk == l.Header.Global {
				continue
			}
			for _, e := range g.Nodes[blk].In {
				if e.Kind == EdgeBranch && !l.Body[e.From] {
					t.Errorf("loop %s: body block %d entered from outside (block %d)",
						l.Header, blk, e.From)
				}
			}
		}
	}
}

func TestEdgeCounts(t *testing.T) {
	p, _, iHead, _ := buildNestedLoops(t, 2, 3, 1)
	g := runWithDCFG(t, p)
	// The inner header is entered 2 (entries) + 2*3 (back edges) times.
	n := g.Nodes[iHead.Global]
	if n == nil {
		t.Fatal("inner header not in graph")
	}
	if n.Execs != 2+2*3 {
		t.Errorf("inner header execs = %d, want 8", n.Execs)
	}
	var total uint64
	for _, e := range n.In {
		if e.Kind == EdgeBranch {
			total += e.Count
		}
	}
	if total != n.Execs {
		t.Errorf("sum of in-edge counts %d != execs %d", total, n.Execs)
	}
}

func TestGraphDeterminism(t *testing.T) {
	p1, _, _, _ := buildNestedLoops(t, 4, 5, 2)
	p2, _, _, _ := buildNestedLoops(t, 4, 5, 2)
	g1 := runWithDCFG(t, p1)
	g2 := runWithDCFG(t, p2)
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatalf("edge counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if *e1[i] != *e2[i] {
			t.Errorf("edge %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

func TestCallEdgesDoNotCreateLoops(t *testing.T) {
	// A routine called repeatedly from a loop must not itself be
	// reported as a loop (its entry sees many call edges, but no
	// intra-routine back edge).
	p := isa.NewProgram("calls", 1)
	main := p.AddImage("main", false)
	callee := main.NewRoutine("leaf")
	cb := callee.NewBlock("entry")
	cb.IOpI(isa.OpIAdd, 5, 5, 1)
	cb.Ret()

	r := main.NewRoutine("main")
	entry := r.NewBlock("entry")
	loop := r.NewBlock("loop")
	done := r.NewBlock("done")
	entry.IMovI(0, 0)
	entry.Br(loop)
	loop.Call(callee)
	loop.IOpI(isa.OpIAdd, 0, 0, 1)
	loop.BrCondI(isa.CondLT, 0, 10, loop, done)
	done.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	g := runWithDCFG(t, p)
	lt := g.FindLoops()
	if lt.IsHeader(cb.Global) {
		t.Error("callee entry misidentified as loop header")
	}
	if !lt.IsHeader(loop.Global) {
		t.Error("calling loop not identified")
	}
	l, _ := lt.Lookup(loop.Global)
	if l.Trips != 9 {
		t.Errorf("loop trips = %d, want 9", l.Trips)
	}
}

func TestNodeSymmetric(t *testing.T) {
	n := &Node{ThreadExecs: []uint64{4, 4, 4, 4}}
	if !n.Symmetric(4) {
		t.Error("equal non-zero counts not symmetric")
	}
	if n.Symmetric(5) {
		t.Error("missing thread counted as symmetric")
	}
	asym := &Node{ThreadExecs: []uint64{4, 4, 3, 4}}
	if asym.Symmetric(4) {
		t.Error("unequal counts counted as symmetric")
	}
	zero := &Node{ThreadExecs: []uint64{0, 0}}
	if zero.Symmetric(2) {
		t.Error("zero counts counted as symmetric")
	}
	single := &Node{ThreadExecs: []uint64{7}}
	if single.Symmetric(1) {
		t.Error("single-threaded block needs no episode restriction")
	}
}

func TestBuilderTracksPerThreadExecs(t *testing.T) {
	p, oHead, _, _ := buildNestedLoops(t, 3, 4, 2)
	g := runWithDCFG(t, p)
	n := g.Nodes[oHead.Global]
	if n == nil {
		t.Fatal("outer header missing")
	}
	var sum uint64
	for _, c := range n.ThreadExecs {
		sum += c
	}
	if sum != n.Execs {
		t.Errorf("per-thread execs sum %d != total %d", sum, n.Execs)
	}
}

// Lookup returns the loop headed by the block with the given global index.
func (lt *LoopTable) Lookup(global int) (*Loop, bool) {
	l, ok := lt.byHeader[global]
	return l, ok
}
