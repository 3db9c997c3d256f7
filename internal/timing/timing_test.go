package timing

import (
	"strings"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

func TestCacheHitLevelsAndLRU(t *testing.T) {
	l2 := NewCache(CacheConfig{Name: "L2", SizeBytes: 4096, Assoc: 4, LineBytes: 64, Latency: 8}, nil)
	l1 := NewCache(CacheConfig{Name: "L1", SizeBytes: 256, Assoc: 2, LineBytes: 64, Latency: 4}, l2)
	// 256B, 2-way, 64B lines -> 2 sets.
	clock := uint64(0)
	next := func() uint64 { clock++; return clock }

	if lvl := l1.Access(0, next()); lvl != 3 {
		t.Fatalf("cold access hit level %d, want 3 (memory)", lvl)
	}
	if lvl := l1.Access(0, next()); lvl != 1 {
		t.Fatalf("second access level %d, want 1", lvl)
	}
	// Fill set 0 beyond associativity: lines 0, 2, 4 map to set 0.
	l1.Access(2*64, next())
	l1.Access(4*64, next()) // evicts line 0 (LRU)
	if l1.Contains(0) {
		t.Fatal("LRU line not evicted")
	}
	if lvl := l1.Access(0, next()); lvl != 2 {
		t.Fatalf("evicted line should hit L2, got level %d", lvl)
	}
	if l1.Accesses != 5 || l1.Misses != 4 {
		t.Errorf("l1 stats: %d accesses %d misses, want 5, 4", l1.Accesses, l1.Misses)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1024, Assoc: 2, LineBytes: 64, Latency: 1}, nil)
	c.Access(128, 1)
	if !c.Contains(128) {
		t.Fatal("line missing after fill")
	}
	c.Invalidate(128)
	if c.Contains(128) {
		t.Fatal("line present after invalidate")
	}
	// Invalidate of absent line is a no-op.
	c.Invalidate(4096)
}

func TestCacheWarmingSuppressesStats(t *testing.T) {
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1024, Assoc: 2, LineBytes: 64, Latency: 1}, nil)
	c.SetWarming(true)
	c.Access(0, 1)
	c.Access(64, 2)
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("warming accesses counted")
	}
	c.SetWarming(false)
	if lvl := c.Access(0, 3); lvl != 1 {
		t.Fatalf("warmed line missed (level %d)", lvl)
	}
	if c.Accesses != 1 || c.Misses != 0 {
		t.Errorf("stats after warming: %d/%d, want 1/0", c.Accesses, c.Misses)
	}
}

func TestSimulateFullSanity(t *testing.T) {
	p := testprog.Phased(4, 4, 200, omp.Passive)
	sim, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.SimulateFull()
	if err != nil {
		t.Fatalf("SimulateFull: %v", err)
	}
	if st.Instructions == 0 || st.Cycles <= 0 {
		t.Fatalf("empty stats: %v", st)
	}
	if ipc := st.IPC(); ipc < 0.05 || ipc > float64(4*4) {
		t.Errorf("implausible aggregate IPC %.3f", ipc)
	}
	if st.FilteredInstructions >= st.Instructions {
		t.Errorf("filtered %d >= total %d", st.FilteredInstructions, st.Instructions)
	}
	if st.L1DAccesses == 0 || st.Branches == 0 {
		t.Error("cache/branch counters empty")
	}
	if st.RuntimeSeconds() <= 0 {
		t.Error("non-positive runtime")
	}
}

func TestSimulateFullDeterministic(t *testing.T) {
	run := func() *Stats {
		p := testprog.Phased(4, 3, 150, omp.Active)
		sim, err := New(Gainestown(4), p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.SimulateFull()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.BranchMisses != b.BranchMisses {
		t.Errorf("non-deterministic simulation: %v vs %v", a, b)
	}
}

func TestInOrderSlowerThanOOO(t *testing.T) {
	p1 := testprog.Phased(4, 3, 300, omp.Passive)
	simO, err := New(Gainestown(4), p1)
	if err != nil {
		t.Fatal(err)
	}
	stO, err := simO.SimulateFull()
	if err != nil {
		t.Fatal(err)
	}
	p2 := testprog.Phased(4, 3, 300, omp.Passive)
	simI, err := New(InOrderConfig(4), p2)
	if err != nil {
		t.Fatal(err)
	}
	stI, err := simI.SimulateFull()
	if err != nil {
		t.Fatal(err)
	}
	if stI.Cycles <= stO.Cycles {
		t.Errorf("in-order (%0.f cycles) not slower than OOO (%0.f cycles)", stI.Cycles, stO.Cycles)
	}
}

func TestActiveRetiresMoreThanPassive(t *testing.T) {
	pa := testprog.Heterogeneous(4, 3, 100, omp.Active)
	pp := testprog.Heterogeneous(4, 3, 100, omp.Passive)
	simA, _ := New(Gainestown(4), pa)
	simP, _ := New(Gainestown(4), pp)
	stA, err := simA.SimulateFull()
	if err != nil {
		t.Fatal(err)
	}
	stP, err := simP.SimulateFull()
	if err != nil {
		t.Fatal(err)
	}
	if stA.Instructions <= stP.Instructions {
		t.Errorf("active retired %d, passive %d; spin-loops should add instructions",
			stA.Instructions, stP.Instructions)
	}
	if stA.FilteredInstructions != stP.FilteredInstructions {
		t.Errorf("filtered counts differ: active %d, passive %d",
			stA.FilteredInstructions, stP.FilteredInstructions)
	}
}

func TestSimulateRegionMatchesProfileSpan(t *testing.T) {
	p := testprog.Phased(4, 8, 150, omp.Passive)
	pb, err := pinball.RecordWithOptions(p, 5, exec.RunOpts{FlowWindow: 512})
	if err != nil {
		t.Fatal(err)
	}
	db := dcfg.NewBuilder(p, 4)
	if _, err := pb.Replay(p, db); err != nil {
		t.Fatal(err)
	}
	g := db.Graph()
	lt := g.FindLoops()
	var addrs []uint64
	for _, h := range g.StableMarkers(lt, 200) {
		addrs = append(addrs, h.Addr)
	}
	col := bbv.NewCollector(p, addrs, 4*1200)
	if _, err := pb.Replay(p, col); err != nil {
		t.Fatal(err)
	}
	prof := col.Finish()
	if len(prof.Regions) < 3 {
		t.Fatalf("too few regions: %d", len(prof.Regions))
	}

	reg := prof.Regions[1]
	sim, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.SimulateRegion(reg.Start, reg.End, WarmupFunctional)
	if err != nil {
		t.Fatalf("SimulateRegion: %v", err)
	}
	// The unconstrained simulation interleaves threads differently from
	// the profiling replay, but the region's work is schedule-invariant:
	// instruction counts must agree within a few percent.
	got, want := float64(st.Instructions), float64(reg.UnfilteredLen())
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("region simulated %d instructions, profile says %d", st.Instructions, reg.UnfilteredLen())
	}
	if st.Cycles <= 0 {
		t.Error("region has no cycles")
	}
}

func TestSimulateRegionFullEqualsSimulateFull(t *testing.T) {
	p := testprog.Phased(2, 3, 100, omp.Passive)
	sim, err := New(Gainestown(2), p)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.SimulateFull()
	if err != nil {
		t.Fatal(err)
	}
	p2 := testprog.Phased(2, 3, 100, omp.Passive)
	sim2, err := New(Gainestown(2), p2)
	if err != nil {
		t.Fatal(err)
	}
	region, err := sim2.SimulateRegion(bbv.Marker{}, bbv.Marker{IsEnd: true}, WarmupFunctional)
	if err != nil {
		t.Fatal(err)
	}
	if full.Instructions != region.Instructions || full.Cycles != region.Cycles {
		t.Errorf("whole-program region differs from full sim: %v vs %v", region, full)
	}
}

func TestSimulateConstrained(t *testing.T) {
	p := testprog.Phased(4, 4, 150, omp.Active)
	pb, err := pinball.RecordWithOptions(p, 9, exec.RunOpts{FlowWindow: 512})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.SimulateConstrained(pb)
	if err != nil {
		t.Fatalf("SimulateConstrained: %v", err)
	}
	if st.Instructions != pb.Schedule.Steps() {
		t.Errorf("constrained sim retired %d, schedule has %d", st.Instructions, pb.Schedule.Steps())
	}
	if st.Cycles <= 0 {
		t.Error("no cycles")
	}
	// Corrupted pinball must be rejected.
	pb.Start.Mem[0] ^= 1
	if _, err := sim.SimulateConstrained(pb); err == nil {
		t.Error("constrained sim accepted corrupted pinball")
	}
}

func TestIPCTrace(t *testing.T) {
	p := testprog.Phased(2, 4, 300, omp.Passive)
	sim, err := New(Gainestown(2), p)
	if err != nil {
		t.Fatal(err)
	}
	sim.Trace = NewIPCTrace(2000)
	if _, err := sim.SimulateFull(); err != nil {
		t.Fatal(err)
	}
	if len(sim.Trace.Samples) < 2 {
		t.Fatalf("trace has %d samples", len(sim.Trace.Samples))
	}
	for _, s := range sim.Trace.Samples {
		if s.IPC < 0 || s.IPC > 8 {
			t.Errorf("implausible trace IPC %.2f", s.IPC)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Gainestown(8)
	if err := good.Validate(); err != nil {
		t.Errorf("Gainestown config invalid: %v", err)
	}
	bad := good
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	// One bit per core in a line's sharer mask: 64 is the most.
	bad = good
	bad.Cores = MaxCores
	if err := bad.Validate(); err != nil {
		t.Errorf("%d cores rejected: %v", MaxCores, err)
	}
	bad.Cores = MaxCores + 1
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("%d cores: err = %v, want a clear refusal", bad.Cores, err)
	}
	bad = good
	bad.MLP = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MLP accepted")
	}
	bad = good
	bad.L1D.Assoc = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad cache accepted")
	}
	if _, err := New(Gainestown(2), testprog.Phased(4, 1, 10, omp.Passive)); err == nil {
		t.Error("fewer cores than threads accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	a := &Stats{Cycles: 100, Instructions: 1000, BranchMisses: 5, L2Misses: 7}
	b := &Stats{Cycles: 50, Instructions: 500, BranchMisses: 2, L2Misses: 3}
	a.Accumulate(b)
	if a.Cycles != 150 || a.Instructions != 1500 || a.BranchMisses != 7 || a.L2Misses != 10 {
		t.Errorf("accumulate wrong: %+v", a)
	}
}

func TestMPKIMath(t *testing.T) {
	s := &Stats{Instructions: 2000, BranchMisses: 4, L2Misses: 10, L3Misses: 1, L1DMisses: 20}
	if got := s.BranchMPKI(); got != 2 {
		t.Errorf("branch MPKI %f, want 2", got)
	}
	if got := s.L2MPKI(); got != 5 {
		t.Errorf("L2 MPKI %f, want 5", got)
	}
	if got := s.L3MPKI(); got != 0.5 {
		t.Errorf("L3 MPKI %f, want 0.5", got)
	}
	if got := s.L1DMPKI(); got != 10 {
		t.Errorf("L1D MPKI %f, want 10", got)
	}
	empty := &Stats{}
	if empty.IPC() != 0 || empty.BranchMPKI() != 0 {
		t.Error("zero-instruction stats must be zero")
	}
}

func TestCPIStackAccounting(t *testing.T) {
	p := testprog.Phased(4, 4, 200, omp.Active)
	sim, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.SimulateFull()
	if err != nil {
		t.Fatal(err)
	}
	total := st.Stack.Total()
	if total <= 0 {
		t.Fatal("empty CPI stack")
	}
	// The stack's total equals the summed per-core busy cycles, which is
	// at least the wall-clock and at most cores x wall-clock.
	if total < st.Cycles*0.999 || total > st.Cycles*4.001 {
		t.Errorf("stack total %.0f outside [wall, 4xwall] = [%.0f, %.0f]",
			total, st.Cycles, st.Cycles*4)
	}
	if st.Stack.Base <= 0 || st.Stack.Memory < 0 || st.Stack.Sync <= 0 {
		t.Errorf("implausible stack: %+v", st.Stack)
	}
	// On an imbalanced active-wait workload, spinning dominates the
	// waiting threads' time and must surface as a substantial sync
	// component — far larger in absolute cycles than the same program
	// under the passive policy, where waiters sleep instead of burning
	// issue slots.
	ha := testprog.Heterogeneous(4, 3, 150, omp.Active)
	hp := testprog.Heterogeneous(4, 3, 150, omp.Passive)
	simA, err := New(Gainestown(4), ha)
	if err != nil {
		t.Fatal(err)
	}
	stA, err := simA.SimulateFull()
	if err != nil {
		t.Fatal(err)
	}
	simP, err := New(Gainestown(4), hp)
	if err != nil {
		t.Fatal(err)
	}
	stP, err := simP.SimulateFull()
	if err != nil {
		t.Fatal(err)
	}
	if stA.Stack.Sync <= stP.Stack.Sync {
		t.Errorf("imbalanced active sync cycles %.0f not above passive %.0f",
			stA.Stack.Sync, stP.Stack.Sync)
	}
	if share := stA.Stack.Sync / stA.Stack.Total(); share < 0.05 {
		t.Errorf("imbalanced active sync share %.3f implausibly low", share)
	}
}

// Accumulate adds other's counters into s: the serial composition of two
// region simulations, Cycles adding up like every other counter.
func (s *Stats) Accumulate(other *Stats) {
	s.Cycles += other.Cycles
	s.Instructions += other.Instructions
	s.FilteredInstructions += other.FilteredInstructions
	s.Branches += other.Branches
	s.BranchMisses += other.BranchMisses
	s.L1IAccesses += other.L1IAccesses
	s.L1IMisses += other.L1IMisses
	s.L1DAccesses += other.L1DAccesses
	s.L1DMisses += other.L1DMisses
	s.L2Accesses += other.L2Accesses
	s.L2Misses += other.L2Misses
	s.L3Accesses += other.L3Accesses
	s.L3Misses += other.L3Misses
	s.CoherenceInvalidations += other.CoherenceInvalidations
	s.FutexWaits += other.FutexWaits
	s.Stack.Add(other.Stack)
}
