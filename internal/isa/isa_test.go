package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func buildTiny(t *testing.T) *Program {
	t.Helper()
	p := NewProgram("tiny", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	b0 := r.NewBlock("entry")
	b1 := r.NewBlock("exit")
	b0.IMovI(1, 42)
	b0.Br(b1)
	b1.Halt()
	p.SetEntry(0, r)
	return p
}

func TestLinkAssignsAddresses(t *testing.T) {
	p := buildTiny(t)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	r := p.Images[0].Routines[0]
	b0, b1 := r.Blocks[0], r.Blocks[1]
	if b0.Addr == 0 || b1.Addr == 0 {
		t.Fatalf("blocks not assigned addresses: %#x %#x", b0.Addr, b1.Addr)
	}
	if b0.Addr >= b1.Addr {
		t.Fatalf("block addresses not increasing: %#x >= %#x", b0.Addr, b1.Addr)
	}
	if b0.Instrs[0].Addr != b0.Addr {
		t.Fatalf("block addr %#x != first instr addr %#x", b0.Addr, b0.Instrs[0].Addr)
	}
	if got, ok := p.BlockByAddr(b1.Addr); !ok || got != b1 {
		t.Fatalf("BlockByAddr(%#x) = %v, %v", b1.Addr, got, ok)
	}
	if p.NumBlocks() != 2 || p.NumInstrs() != 3 {
		t.Fatalf("NumBlocks=%d NumInstrs=%d, want 2, 3", p.NumBlocks(), p.NumInstrs())
	}
}

func TestLinkTwiceFails(t *testing.T) {
	p := buildTiny(t)
	if err := p.Link(); err != nil {
		t.Fatalf("first Link: %v", err)
	}
	if err := p.Link(); err == nil {
		t.Fatal("second Link succeeded, want error")
	}
}

func TestLinkRejectsMissingTerminator(t *testing.T) {
	p := NewProgram("bad", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	b := r.NewBlock("entry")
	b.IMovI(0, 1) // no terminator
	p.SetEntry(0, r)
	if err := p.Link(); err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("Link = %v, want terminator error", err)
	}
}

func TestLinkRejectsMidBlockBranch(t *testing.T) {
	p := NewProgram("bad", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	b := r.NewBlock("entry")
	b.Halt()
	b.IMovI(0, 1)
	b.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err == nil {
		t.Fatal("Link succeeded with mid-block terminator")
	}
}

func TestLinkRejectsBadTarget(t *testing.T) {
	p := NewProgram("bad", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	b := r.NewBlock("entry")
	b.emit(Instr{Op: OpBr, Target: 7})
	p.SetEntry(0, r)
	if err := p.Link(); err == nil {
		t.Fatal("Link succeeded with out-of-range branch target")
	}
}

func TestLinkRejectsMissingEntry(t *testing.T) {
	p := NewProgram("bad", 2)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	r.NewBlock("entry").Halt()
	p.SetEntry(0, r) // thread 1 left without entry
	if err := p.Link(); err == nil {
		t.Fatal("Link succeeded with missing thread entry")
	}
}

func TestAllocLayout(t *testing.T) {
	p := NewProgram("alloc", 1)
	a := p.Alloc("a", 3)
	b := p.Alloc("b", 10)
	if a == b {
		t.Fatal("overlapping allocations")
	}
	if b < a+3 {
		t.Fatalf("allocation b=%d overlaps a=%d..%d", b, a, a+3)
	}
	if b%8 != 0 {
		t.Fatalf("aligned allocation b=%d not cache-line aligned", b)
	}
	if got, ok := p.Symbol("a"); !ok || got != a {
		t.Fatalf("Symbol(a) = %d, %v", got, ok)
	}
	if _, ok := p.Symbol("zzz"); ok {
		t.Fatal("Symbol(zzz) found")
	}
}

func TestAllocDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Alloc did not panic")
		}
	}()
	p := NewProgram("alloc", 1)
	p.Alloc("x", 1)
	p.Alloc("x", 1)
}

func TestCondEvalInt(t *testing.T) {
	cases := []struct {
		c    Cond
		a, b int64
		want bool
	}{
		{CondEQ, 3, 3, true}, {CondEQ, 3, 4, false},
		{CondNE, 3, 4, true}, {CondNE, 3, 3, false},
		{CondLT, -1, 0, true}, {CondLT, 0, 0, false},
		{CondLE, 0, 0, true}, {CondLE, 1, 0, false},
		{CondGT, 5, 4, true}, {CondGT, 4, 4, false},
		{CondGE, 4, 4, true}, {CondGE, 3, 4, false},
	}
	for _, c := range cases {
		if got := c.c.EvalInt(c.a, c.b); got != c.want {
			t.Errorf("%v.EvalInt(%d,%d) = %v, want %v", c.c, c.a, c.b, got, c.want)
		}
	}
}

func TestCondConsistency(t *testing.T) {
	// Property: EQ/NE are complements, LT/GE are complements, LE/GT are
	// complements, for both integer and float evaluation.
	f := func(a, b int64) bool {
		return CondEQ.EvalInt(a, b) != CondNE.EvalInt(a, b) &&
			CondLT.EvalInt(a, b) != CondGE.EvalInt(a, b) &&
			CondLE.EvalInt(a, b) != CondGT.EvalInt(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		return CondEQ.EvalFloat(a, b) != CondNE.EvalFloat(a, b) &&
			CondLT.EvalFloat(a, b) != CondGE.EvalFloat(a, b) &&
			CondLE.EvalFloat(a, b) != CondGT.EvalFloat(a, b)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestOpClassification(t *testing.T) {
	if !OpBr.IsBranch() || !OpBrCond.IsBranch() || !OpRet.IsBranch() || !OpHalt.IsBranch() {
		t.Error("terminators not classified as branches")
	}
	if OpCall.IsBranch() {
		t.Error("OpCall must not terminate a block")
	}
	for _, o := range []Op{OpILoad, OpIStore, OpFLoad, OpFStore, OpAtomicAdd, OpCmpXchg, OpXchg} {
		if !o.IsMem() {
			t.Errorf("%v not classified as memory op", o)
		}
	}
	for _, o := range []Op{OpIStore, OpFStore, OpAtomicAdd, OpCmpXchg, OpXchg} {
		if !o.IsWrite() {
			t.Errorf("%v not classified as write", o)
		}
	}
	if OpILoad.IsWrite() || OpFLoad.IsWrite() {
		t.Error("loads classified as writes")
	}
	for _, o := range []Op{OpAtomicAdd, OpCmpXchg, OpXchg} {
		if !o.IsAtomic() {
			t.Errorf("%v not classified as atomic", o)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for o := OpNop; o < opMax; o++ {
		s := o.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no name", o)
		}
	}
}

// IsMem reports whether the opcode accesses data memory.
func (o Op) IsMem() bool {
	switch o {
	case OpILoad, OpIStore, OpFLoad, OpFStore, OpAtomicAdd, OpCmpXchg, OpXchg, OpFutexWait, OpFutexWake:
		return true
	}
	return false
}

// IsWrite reports whether the opcode writes data memory.
func (o Op) IsWrite() bool {
	switch o {
	case OpIStore, OpFStore, OpAtomicAdd, OpCmpXchg, OpXchg:
		return true
	}
	return false
}

// IsAtomic reports whether the opcode is an atomic read-modify-write.
func (o Op) IsAtomic() bool {
	switch o {
	case OpAtomicAdd, OpCmpXchg, OpXchg:
		return true
	}
	return false
}

// NumInstrs returns the total number of static instructions.
func (p *Program) NumInstrs() int {
	n := 0
	for _, img := range p.Images {
		for _, r := range img.Routines {
			for _, b := range r.Blocks {
				n += len(b.Instrs)
			}
		}
	}
	return n
}
