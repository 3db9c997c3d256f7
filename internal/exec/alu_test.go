package exec

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"looppoint/internal/isa"
)

// evalBin builds a one-shot program computing `a op b` and returns the
// integer result.
func evalBin(t *testing.T, op isa.Op, a, b int64) int64 {
	t.Helper()
	p := isa.NewProgram("alu", 1)
	out := p.Alloc("out", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	blk := r.NewBlock("entry")
	blk.IMovI(1, a)
	blk.IMovI(2, b)
	blk.IOp(op, 3, 1, 2)
	blk.IMovI(4, int64(out))
	blk.IStore(4, 0, 3)
	blk.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, 1)
	if err := m.Run(RunOpts{}); err != nil {
		t.Fatal(err)
	}
	return int64(m.LoadWord(out))
}

func evalFBin(t *testing.T, op isa.Op, a, b float64) float64 {
	t.Helper()
	p := isa.NewProgram("falu", 1)
	out := p.Alloc("out", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	blk := r.NewBlock("entry")
	blk.FMovI(1, a)
	blk.FMovI(2, b)
	blk.FOp(op, 3, 1, 2)
	blk.IMovI(4, int64(out))
	blk.FStore(4, 0, 3)
	blk.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, 1)
	if err := m.Run(RunOpts{}); err != nil {
		t.Fatal(err)
	}
	return math.Float64frombits(m.LoadWord(out))
}

func TestIntegerALUMatchesGoSemantics(t *testing.T) {
	cases := []struct {
		op  isa.Op
		ref func(a, b int64) int64
	}{
		{isa.OpIAdd, func(a, b int64) int64 { return a + b }},
		{isa.OpISub, func(a, b int64) int64 { return a - b }},
		{isa.OpIMul, func(a, b int64) int64 { return a * b }},
		{isa.OpIAnd, func(a, b int64) int64 { return a & b }},
		{isa.OpIOr, func(a, b int64) int64 { return a | b }},
		{isa.OpIXor, func(a, b int64) int64 { return a ^ b }},
	}
	for _, c := range cases {
		c := c
		f := func(a, b int64) bool {
			return evalBin(t, c.op, a, b) == c.ref(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%v: %v", c.op, err)
		}
	}
}

func TestDivRemEdgeCases(t *testing.T) {
	// Division by zero yields zero (no trap) by ISA definition.
	if got := evalBin(t, isa.OpIDiv, 42, 0); got != 0 {
		t.Errorf("42/0 = %d, want 0", got)
	}
	if got := evalBin(t, isa.OpIRem, 42, 0); got != 0 {
		t.Errorf("42%%0 = %d, want 0", got)
	}
	if got := evalBin(t, isa.OpIDiv, -7, 2); got != -3 {
		t.Errorf("-7/2 = %d, want -3 (Go truncated division)", got)
	}
	if got := evalBin(t, isa.OpIRem, -7, 2); got != -1 {
		t.Errorf("-7%%2 = %d, want -1", got)
	}
	// Shifts mask the count to 6 bits.
	if got := evalBin(t, isa.OpIShl, 1, 64); got != 1 {
		t.Errorf("1<<64 = %d, want 1 (count masked)", got)
	}
	if got := evalBin(t, isa.OpIShr, -1, 1); got != int64(uint64(0xFFFFFFFFFFFFFFFF)>>1) {
		t.Errorf("IShr is not logical: %d", got)
	}
}

func TestFloatALU(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return evalFBin(t, isa.OpFAdd, a, b) == a+b &&
			evalFBin(t, isa.OpFMul, a, b) == a*b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
	if got := evalFBin(t, isa.OpFDiv, 1, 0); !math.IsInf(got, 1) {
		t.Errorf("1/0 = %v, want +Inf (IEEE semantics)", got)
	}
}

// TestFloatOpsHostIndependent pins the two float ops Go leaves to the host:
// OpFCvtI on NaN, ±Inf and out-of-range values, and OpFMA's rounding (two,
// never one fused). Each case runs on all three interpreter paths: Step,
// StepBlock's leading compute run (execComputeRun), and StepBlock's
// per-instruction switch, reached past a store.
func TestFloatOpsHostIndependent(t *testing.T) {
	// eval runs emit, which leaves its result in R3 (or in F3 if float),
	// on each path and returns the result's bits from each.
	eval := func(t *testing.T, float bool, emit func(b *isa.Block)) []uint64 {
		var got []uint64
		for _, pastStore := range []bool{false, true} {
			p := isa.NewProgram("float", 1)
			out := p.Alloc("out", 1)
			r := p.AddImage("main", false).NewRoutine("main")
			blk := r.NewBlock("entry")
			if pastStore {
				blk.IMovI(4, int64(out))
				blk.IStore(4, 0, 4)
			}
			emit(blk)
			blk.IMovI(4, int64(out))
			if float {
				blk.FStore(4, 0, 3)
			} else {
				blk.IStore(4, 0, 3)
			}
			blk.Halt()
			p.SetEntry(0, r)
			if err := p.Link(); err != nil {
				t.Fatal(err)
			}
			if !pastStore && p.Blocks()[0].ALULen < 3 {
				t.Fatal("the op is not in the block's leading compute run")
			}
			run, step := NewMachine(p, 1), NewMachine(p, 1)
			if err := run.Run(RunOpts{}); err != nil {
				t.Fatal(err)
			}
			for step.Threads[0].State == StateRunning {
				step.Step(0)
			}
			got = append(got, run.LoadWord(out), step.LoadWord(out))
		}
		return got
	}
	for _, c := range []struct {
		f    float64
		want int64
	}{
		{math.NaN(), math.MinInt64},
		{math.Inf(1), math.MinInt64},
		{math.Inf(-1), math.MinInt64},
		{1 << 63, math.MinInt64},
		{-1 << 63, math.MinInt64},
		{1e300, math.MinInt64},
		{-1e300, math.MinInt64},
		{3.9, 3},
		{-3.9, -3},
		{math.Copysign(0, -1), 0},
	} {
		for i, got := range eval(t, false, func(b *isa.Block) { b.FMovI(1, c.f).FCvtI(3, 1) }) {
			if int64(got) != c.want {
				t.Errorf("FCvtI(%v) on path %d = %d, want %d", c.f, i, int64(got), c.want)
			}
		}
	}
	// (1+2^-30)² - (1+2^-29) is 2^-60 exactly: a fused multiply-add keeps
	// it, the product's rounding loses it.
	a := 1 + math.Ldexp(1, -30)
	for i, got := range eval(t, true, func(b *isa.Block) { b.FMovI(1, a).FMovI(3, -(1+math.Ldexp(1, -29))).FMA(3, 1, 1) }) {
		if f := math.Float64frombits(got); f != 0 {
			t.Errorf("FMA on path %d = %v, want 0 (the product rounded before the add)", i, f)
		}
	}
}

func TestCmpXchgSemantics(t *testing.T) {
	p := isa.NewProgram("cas", 1)
	cell := p.Alloc("cell", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	blk := r.NewBlock("entry")
	// mem = 5; CAS(expect 5 -> 9) succeeds; CAS(expect 5 -> 11) fails.
	blk.IMovI(1, int64(cell))
	blk.IMovI(2, 5)
	blk.IStore(1, 0, 2)
	blk.IMovI(3, 9) // new value in Dst
	blk.CmpXchg(3, 1, 0, 2)
	blk.IMovI(4, 11)
	blk.CmpXchg(4, 1, 0, 2) // expect 5, but cell is 9
	blk.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, 1)
	if err := m.Run(RunOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := m.LoadWord(cell); got != 9 {
		t.Errorf("cell = %d, want 9", got)
	}
	if m.Threads[0].R[3] != 1 {
		t.Errorf("first CAS result = %d, want 1 (success)", m.Threads[0].R[3])
	}
	if m.Threads[0].R[4] != 0 {
		t.Errorf("second CAS result = %d, want 0 (failure)", m.Threads[0].R[4])
	}
}

func TestXchgAndAtomicAdd(t *testing.T) {
	p := isa.NewProgram("atomics", 1)
	cell := p.Alloc("cell", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	blk := r.NewBlock("entry")
	blk.IMovI(1, int64(cell))
	blk.IMovI(2, 100)
	blk.IStore(1, 0, 2)
	blk.IMovI(3, 7)
	blk.AtomicAdd(4, 1, 0, 3) // R4 = 100, cell = 107
	blk.IMovI(5, 55)
	blk.Xchg(6, 1, 0, 5) // R6 = 107, cell = 55
	blk.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, 1)
	if err := m.Run(RunOpts{}); err != nil {
		t.Fatal(err)
	}
	th := m.Threads[0]
	if th.R[4] != 100 || th.R[6] != 107 || m.LoadWord(cell) != 55 {
		t.Errorf("atomics wrong: old-add=%d old-xchg=%d cell=%d", th.R[4], th.R[6], m.LoadWord(cell))
	}
}

func TestOutOfBoundsAccessFaults(t *testing.T) {
	p := isa.NewProgram("oob", 1)
	p.Alloc("x", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	blk := r.NewBlock("entry")
	blk.IMovI(1, 1<<40)
	blk.ILoad(2, 1, 0)
	blk.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, 1)
	err := m.Run(RunOpts{})
	if !errors.Is(err, ErrMachine) {
		t.Errorf("out-of-bounds access: err = %v, want ErrMachine", err)
	}
}
