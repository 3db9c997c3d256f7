package bbv

import (
	"testing"

	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
)

// buildPhased builds an nthreads-thread program with two distinct compute
// phases separated by barriers, each phase being a loop over per-thread
// array slices, repeated for several timesteps. All threads execute the
// same routine (as compiled OpenMP code would), parameterized by the tid
// register, so loop-header PCs are shared across threads.
func buildPhased(t testing.TB, nthreads int, timesteps, iters int64, policy omp.WaitPolicy) *isa.Program {
	t.Helper()
	p := isa.NewProgram("phased", nthreads)
	arr := p.Alloc("arr", uint64(nthreads)*uint64(iters))
	main := p.AddImage("main", false)
	rt := omp.New(p, policy)
	bar := rt.NewBarrier("step")

	r := main.NewRoutine("thread_main")
	entry := r.NewBlock("entry")
	step := r.NewBlock("timestep")
	l1 := r.NewBlock("phase1_loop")
	mid := r.NewBlock("mid")
	l2 := r.NewBlock("phase2_loop")
	latch := r.NewBlock("latch")
	done := r.NewBlock("done")

	// base = arr + tid*iters
	entry.IMovI(5, iters)
	entry.IOp(isa.OpIMul, 5, isa.RegTid, 5)
	entry.IOpI(isa.OpIAdd, 5, 5, int64(arr))
	entry.IMovI(0, 0) // timestep counter
	entry.Br(step)
	step.IMovI(1, 0) // i
	step.IMov(2, 5)
	step.Br(l1)
	// Phase 1: integer adds + stores.
	l1.IOp(isa.OpIAdd, 3, 1, 1)
	l1.IOp(isa.OpIAdd, 4, 2, 1)
	l1.IStore(4, 0, 3)
	l1.IOpI(isa.OpIAdd, 1, 1, 1)
	l1.BrCondI(isa.CondLT, 1, iters, l1, mid)
	rt.EmitBarrier(mid, bar)
	mid.IMovI(1, 0)
	mid.Br(l2)
	// Phase 2: float loads + FMA.
	l2.IOp(isa.OpIAdd, 4, 2, 1)
	l2.FLoad(0, 4, 0)
	l2.FMA(1, 0, 0)
	l2.IOpI(isa.OpIAdd, 1, 1, 1)
	l2.BrCondI(isa.CondLT, 1, iters, l2, latch)
	rt.EmitBarrier(latch, bar)
	latch.IOpI(isa.OpIAdd, 0, 0, 1)
	latch.BrCondI(isa.CondLT, 0, timesteps, step, done)
	done.Halt()
	for tid := 0; tid < nthreads; tid++ {
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

// markerAddrs runs a DCFG pass and returns main-image loop-header addresses.
func markerAddrs(t testing.TB, p *isa.Program) []uint64 {
	t.Helper()
	m := exec.NewMachine(p, 1)
	db := dcfg.NewBuilder(p, p.NumThreads())
	m.AddBlockObserver(db)
	if err := m.Run(exec.RunOpts{FlowWindow: 1000}); err != nil {
		t.Fatalf("DCFG run: %v", err)
	}
	lt := db.Graph().FindLoops()
	var addrs []uint64
	for _, h := range lt.MainImageHeaders() {
		addrs = append(addrs, h.Addr)
	}
	if len(addrs) == 0 {
		t.Fatal("no main-image loop headers found")
	}
	return addrs
}

func collect(t testing.TB, p *isa.Program, addrs []uint64, slice uint64) *Profile {
	t.Helper()
	m := exec.NewMachine(p, 1)
	c := NewCollector(p, addrs, slice)
	m.AddBlockObserver(c)
	if err := m.Run(exec.RunOpts{FlowWindow: 1000}); err != nil {
		t.Fatalf("profile run: %v", err)
	}
	return c.Finish()
}

func TestProfileCoversExecution(t *testing.T) {
	p := buildPhased(t, 4, 6, 200, omp.Passive)
	addrs := markerAddrs(t, p)
	prof := collect(t, p, addrs, 4*2000)

	if len(prof.Regions) < 2 {
		t.Fatalf("only %d regions; expected several", len(prof.Regions))
	}
	var filtered, span uint64
	for i, r := range prof.Regions {
		filtered += r.Filtered
		span += r.UnfilteredLen()
		if i > 0 && prof.Regions[i-1].End != r.Start {
			t.Errorf("region %d start %v != previous end %v", i, r.Start, prof.Regions[i-1].End)
		}
	}
	if filtered != prof.TotalFiltered {
		t.Errorf("region filtered sum %d != total %d", filtered, prof.TotalFiltered)
	}
	if span != prof.TotalICount {
		t.Errorf("region spans %d != total icount %d", span, prof.TotalICount)
	}
	if !prof.Regions[0].Start.IsStart() {
		t.Errorf("first region starts at %v, want <start>", prof.Regions[0].Start)
	}
	if !prof.Regions[len(prof.Regions)-1].End.IsEnd {
		t.Errorf("last region ends at %v, want <end>", prof.Regions[len(prof.Regions)-1].End)
	}
	if prof.TotalFiltered >= prof.TotalICount {
		t.Errorf("filtered %d not smaller than total %d (sync code not filtered?)",
			prof.TotalFiltered, prof.TotalICount)
	}
}

func TestActivePolicyFiltersSpin(t *testing.T) {
	// Active-wait runs execute spin-loop instructions; the filtered
	// count must exclude them, so filtered/total is noticeably lower
	// than for passive runs while filtered counts themselves match.
	pa := buildPhased(t, 4, 4, 150, omp.Active)
	pp := buildPhased(t, 4, 4, 150, omp.Passive)
	profA := collect(t, pa, markerAddrs(t, pa), 4*1000)
	profP := collect(t, pp, markerAddrs(t, pp), 4*1000)

	if profA.TotalFiltered != profP.TotalFiltered {
		t.Errorf("filtered counts differ across wait policies: active %d, passive %d",
			profA.TotalFiltered, profP.TotalFiltered)
	}
	if profA.TotalICount <= profP.TotalICount {
		t.Errorf("active total %d not larger than passive total %d",
			profA.TotalICount, profP.TotalICount)
	}
}

func TestMarkersReproducibleOnReplay(t *testing.T) {
	// Section III-H: region selection runs on the deterministic pinball
	// replay, so two profiling passes over the same recorded schedule
	// must produce byte-identical markers and filtered counts.
	p1 := buildPhased(t, 4, 5, 100, omp.Active)
	addrs := markerAddrs(t, p1)
	var sched exec.Schedule
	m1 := exec.NewMachine(p1, 1)
	c1 := NewCollector(p1, addrs, 4*800)
	m1.AddBlockObserver(c1)
	if err := m1.Run(exec.RunOpts{FlowWindow: 1000, Record: &sched}); err != nil {
		t.Fatalf("record run: %v", err)
	}
	prof1 := c1.Finish()

	p2 := buildPhased(t, 4, 5, 100, omp.Active)
	m2 := exec.NewMachine(p2, 1)
	c2 := NewCollector(p2, addrs, 4*800)
	m2.AddBlockObserver(c2)
	if err := m2.RunSchedule(sched); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	prof2 := c2.Finish()

	if len(prof1.Regions) != len(prof2.Regions) {
		t.Fatalf("region counts differ: %d vs %d", len(prof1.Regions), len(prof2.Regions))
	}
	for i := range prof1.Regions {
		a, b := prof1.Regions[i], prof2.Regions[i]
		if a.Start != b.Start || a.End != b.End {
			t.Errorf("region %d markers differ: [%v,%v] vs [%v,%v]",
				i, a.Start, a.End, b.Start, b.End)
		}
		if a.Filtered != b.Filtered {
			t.Errorf("region %d filtered counts differ: %d vs %d", i, a.Filtered, b.Filtered)
		}
	}
}

func TestMarkerTotalsScheduleInvariant(t *testing.T) {
	// The total execution count of every marker is a property of the
	// work, not the schedule — the reason (PC, count) pairs remain valid
	// boundaries in any run, including under spin-loops (Section III-C).
	p1 := buildPhased(t, 4, 5, 100, omp.Active)
	addrs := markerAddrs(t, p1)
	prof1 := collect(t, p1, addrs, 4*800)

	p2 := buildPhased(t, 4, 5, 100, omp.Active)
	m := exec.NewMachine(p2, 42)
	c := NewCollector(p2, addrs, 4*800)
	m.AddBlockObserver(c)
	if err := m.Run(exec.RunOpts{Quantum: 13}); err != nil { // different schedule
		t.Fatalf("run: %v", err)
	}
	prof2 := c.Finish()

	if prof1.TotalFiltered != prof2.TotalFiltered {
		t.Errorf("filtered totals differ across schedules: %d vs %d",
			prof1.TotalFiltered, prof2.TotalFiltered)
	}
	for a, n1 := range prof1.MarkerCounts {
		if n2 := prof2.MarkerCounts[a]; n1 != n2 {
			t.Errorf("marker %#x total count differs: %d vs %d", a, n1, n2)
		}
	}
}

func TestMarkersReachableUnderDifferentSchedule(t *testing.T) {
	// A (PC, count) boundary chosen during profiling must be reachable
	// when the program runs under a different schedule — that is what
	// lets unconstrained simulation locate the region.
	p1 := buildPhased(t, 4, 6, 100, omp.Active)
	addrs := markerAddrs(t, p1)
	prof := collect(t, p1, addrs, 4*800)
	p2 := buildPhased(t, 4, 6, 100, omp.Active)
	m := exec.NewMachine(p2, 9)
	c := NewCollector(p2, addrs, 4*800)
	m.AddBlockObserver(c)
	if err := m.Run(exec.RunOpts{Quantum: 7}); err != nil { // different seed and quantum
		t.Fatalf("run: %v", err)
	}
	other := c.Finish()
	tested := 0
	for _, r := range prof.Regions {
		if r.End.IsEnd {
			continue
		}
		// The marker is the End.Count-th entry of block End.PC; it exists
		// in the other run exactly when that block is entered that often.
		if got := other.MarkerCounts[r.End.PC]; got < r.End.Count {
			t.Errorf("marker %v unreachable under a different schedule: block entered %d times", r.End, got)
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no interior markers to test")
	}
}

func TestThreadSharesSumToOne(t *testing.T) {
	p := buildPhased(t, 4, 4, 200, omp.Passive)
	prof := collect(t, p, markerAddrs(t, p), 4*1000)
	for i, shares := range prof.ThreadShare() {
		var sum float64
		for _, s := range shares {
			sum += s
		}
		if prof.Regions[i].Filtered > 0 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("region %d shares sum to %f", i, sum)
		}
	}
}

func TestMarkerString(t *testing.T) {
	if (Marker{}).String() != "<start>" {
		t.Error("start marker string")
	}
	if (Marker{IsEnd: true}).String() != "<end>" {
		t.Error("end marker string")
	}
	if (Marker{PC: 0x10, Count: 3}).String() == "" {
		t.Error("marker string empty")
	}
}

func TestVariableSlicesSplitAtPhaseChanges(t *testing.T) {
	// With fixed slicing, a slice can straddle the two phases; with
	// variable slicing the collector closes early at phase changes, so
	// regions become purer: more regions, each dominated by one phase.
	p1 := buildPhased(t, 4, 6, 400, omp.Passive)
	addrs := markerAddrs(t, p1)
	fixed := collect(t, p1, addrs, 4*3000)

	p2 := buildPhased(t, 4, 6, 400, omp.Passive)
	m := exec.NewMachine(p2, 1)
	c := NewCollector(p2, addrs, 4*3000)
	c.SetVariableSlices(0.1, 0.5)
	m.AddBlockObserver(c)
	if err := m.Run(exec.RunOpts{FlowWindow: 1000}); err != nil {
		t.Fatalf("run: %v", err)
	}
	variable := c.Finish()

	if len(variable.Regions) <= len(fixed.Regions) {
		t.Errorf("variable slicing produced %d regions, fixed %d; expected more (earlier closes)",
			len(variable.Regions), len(fixed.Regions))
	}
	if variable.TotalFiltered != fixed.TotalFiltered {
		t.Errorf("variable slicing changed total work: %d vs %d",
			variable.TotalFiltered, fixed.TotalFiltered)
	}
	// No region may exceed the fixed budget (plus one marker interval).
	for _, r := range variable.Regions {
		if r.Filtered > 4*3000*2 {
			t.Errorf("region %d exceeds budget: %d", r.Index, r.Filtered)
		}
	}
}

func TestVariableSlicesDefaultsAndBounds(t *testing.T) {
	p := buildPhased(t, 2, 3, 100, omp.Passive)
	c := NewCollector(p, []uint64{1}, 1000)
	c.SetVariableSlices(-1, -1) // out-of-range values fall back to defaults
	if c.varMinFrac != 0.25 || c.varThresh != 0.5 {
		t.Errorf("defaults not applied: %v %v", c.varMinFrac, c.varThresh)
	}
}

func TestMarkerModulusRestrictsBoundaries(t *testing.T) {
	p := buildPhased(t, 4, 10, 120, omp.Passive)
	addrs := markerAddrs(t, p)

	run := func(mod uint64) *Profile {
		p2 := buildPhased(t, 4, 10, 120, omp.Passive)
		m := exec.NewMachine(p2, 1)
		c := NewCollector(p2, addrs, 4*1200)
		if mod > 1 {
			mm := make(map[uint64]uint64)
			for _, a := range addrs {
				mm[a] = mod
			}
			c.SetMarkerModulus(mm)
		}
		m.AddBlockObserver(c)
		if err := m.Run(exec.RunOpts{FlowWindow: 1000}); err != nil {
			t.Fatalf("run: %v", err)
		}
		return c.Finish()
	}

	restricted := run(4)
	for _, r := range restricted.Regions {
		if r.End.IsEnd || r.End.PC == 0 {
			continue
		}
		if (r.End.Count-1)%4 != 0 {
			t.Errorf("region %d boundary %v violates modulus 4", r.Index, r.End)
		}
	}
	// Work is conserved regardless of the restriction.
	free := run(1)
	if restricted.TotalFiltered != free.TotalFiltered {
		t.Errorf("modulus changed total work: %d vs %d",
			restricted.TotalFiltered, free.TotalFiltered)
	}
}

// TestCloseRuleBudgetModulusAndOverrunValve drives the collector with
// hand-built events and checks the close rule hit by hit: a close needs
// the slice budget reached AND an admitted hit count, and a 2x budget
// overrun forces a close on a hit the modulus would not admit.
func TestCloseRuleBudgetModulusAndOverrunValve(t *testing.T) {
	p := buildPhased(t, 2, 3, 100, omp.Passive)
	addrs := markerAddrs(t, p)
	marker, _ := p.BlockByAddr(addrs[0])
	var filler *isa.Block
	for _, b := range marker.Routine.Blocks {
		if b != marker {
			filler = b
		}
	}
	const target = 100
	c := NewCollector(p, addrs[:1], target)
	c.SetMarkerModulus(map[uint64]uint64{marker.Addr: 4})
	work := func(n uint64) { c.OnBlock(&exec.BlockEvent{Block: filler, Instrs: n, Entries: 1}) }
	hit := func() { c.OnBlock(&exec.BlockEvent{Block: marker, Instrs: 1, Entries: 1}) }

	work(50)
	hit() // count 1: admitted, but only 50 of the budget used
	work(69)
	hit() // count 2: budget met (120), not admitted
	work(29)
	hit() // count 3: 150, not admitted
	work(59)
	hit() // count 4: not admitted, but 210 >= 2x budget forces the close
	work(29)
	hit() // count 5: admitted, but the new region holds only 30
	prof := c.Finish()

	if len(prof.Regions) != 2 {
		t.Fatalf("%d regions, want 2 (one forced close, one trailing)", len(prof.Regions))
	}
	r := prof.Regions[0]
	if want := (Marker{PC: marker.Addr, Count: 4}); r.End != want || r.Filtered != 210 || r.EndICount != 211 {
		t.Fatalf("first region ends %v after %d filtered at icount %d, want %v after 210 at 211", r.End, r.Filtered, r.EndICount, want)
	}
	if prof.MarkerCounts[marker.Addr] != 5 || prof.TotalFiltered != 241 || prof.TotalICount != 241 {
		t.Fatalf("marker count %d, totals %d/%d", prof.MarkerCounts[marker.Addr], prof.TotalFiltered, prof.TotalICount)
	}
}
