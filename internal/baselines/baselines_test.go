package baselines

import (
	"context"
	"errors"
	"testing"

	"looppoint/internal/core"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SliceUnit = 1500
	cfg.FlowWindow = 512
	return cfg
}

func TestBarrierPointRegionsMatchBarrierCount(t *testing.T) {
	const timesteps = 8
	p, rt := testprog.PhasedWithRuntime(4, timesteps, 150, omp.Passive)
	a, err := AnalyzeBarrierPoint(p, rt.BarrierReleaseAddr(), testConfig())
	if err != nil {
		t.Fatalf("AnalyzeBarrierPoint: %v", err)
	}
	// Two barriers per timestep -> 2*timesteps releases; regions are the
	// spans between releases plus the trailing region to program end.
	want := 2*timesteps + 1
	if got := len(a.Profile.Regions); got != want {
		t.Errorf("inter-barrier regions = %d, want %d", got, want)
	}
	st := RegionStats(a)
	if st.LargestRegion == 0 || st.MeanRegion == 0 {
		t.Error("empty region stats")
	}
	if st.TotalFiltered != a.Profile.TotalFiltered {
		t.Error("stats total mismatch")
	}
}

func TestBarrierPointSelectAndExtrapolate(t *testing.T) {
	p, rt := testprog.PhasedWithRuntime(4, 10, 150, omp.Passive)
	a, err := AnalyzeBarrierPoint(p, rt.BarrierReleaseAddr(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.Select(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Points) == 0 || len(sel.Points) >= len(a.Profile.Regions) {
		t.Fatalf("barrierpoint selected %d of %d regions", len(sel.Points), len(a.Profile.Regions))
	}
	sp := core.ComputeTheoretical(sel)
	if sp.TheoreticalSerial <= 1 || sp.TheoreticalParallel < sp.TheoreticalSerial {
		t.Errorf("implausible barrierpoint speedups: %+v", sp)
	}
}

// barrierFree builds a multi-threaded program with no barriers at all
// (the 657.xz_s case where BarrierPoint is inapplicable).
func barrierFree(nthreads int) (*isa.Program, uint64) {
	p := isa.NewProgram("nobarrier", nthreads)
	arr := p.Alloc("arr", 1024)
	main := p.AddImage("main", false)
	rt := omp.New(p, omp.Passive)
	r := main.NewRoutine("thread_main")
	entry := r.NewBlock("entry")
	loop := r.NewBlock("loop")
	done := r.NewBlock("done")
	entry.IMovI(0, 0)
	entry.Br(loop)
	loop.IOpI(isa.OpIAnd, 1, 0, 1023)
	loop.IOpI(isa.OpIAdd, 1, 1, int64(arr))
	loop.ILoad(2, 1, 0)
	loop.IOpI(isa.OpIAdd, 2, 2, 1)
	loop.IStore(1, 0, 2)
	loop.IOpI(isa.OpIAdd, 0, 0, 1)
	loop.BrCondI(isa.CondLT, 0, 5000, loop, done)
	done.Halt()
	for tid := 0; tid < nthreads; tid++ {
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		panic(err)
	}
	return p, rt.BarrierReleaseAddr()
}

func TestBarrierPointInapplicableWithoutBarriers(t *testing.T) {
	p, release := barrierFree(2)
	_, err := AnalyzeBarrierPoint(p, release, testConfig())
	if !errors.Is(err, ErrNoBarriers) {
		t.Fatalf("err = %v, want ErrNoBarriers", err)
	}
}

func TestNaiveSimPointProfilesOnRawICount(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Active)
	a, err := NaiveSimPointAnalysis(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Naive slicing counts spin instructions as work.
	if a.Profile.TotalFiltered != a.Profile.TotalICount {
		t.Errorf("naive profile filtered %d != total %d (spin filtering should be off)",
			a.Profile.TotalFiltered, a.Profile.TotalICount)
	}
	for i, r := range a.Profile.Regions[:len(a.Profile.Regions)-1] {
		if !r.End.IsICount() {
			t.Errorf("region %d boundary %v is not an icount marker", i, r.End)
		}
	}
	if _, err := core.Select(a); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveWorseThanLoopPointOnActive(t *testing.T) {
	// Section II's motivating measurement: the naive adaptation's error
	// on active-wait workloads far exceeds LoopPoint's. Heterogeneous
	// work + active spinning is its worst case.
	p1 := testprog.Heterogeneous(4, 12, 180, omp.Active)
	lp, err := core.Run(context.Background(), p1, testConfig(), timing.Gainestown(4), core.RunOpts{SimulateFull: true})
	if err != nil {
		t.Fatal(err)
	}

	p2 := testprog.Heterogeneous(4, 12, 180, omp.Active)
	na, err := NaiveSimPointAnalysis(p2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	nsel, err := core.Select(na)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := core.SimulateRegions(context.Background(), nsel, timing.Gainestown(4), core.SimOpts{})
	if err != nil {
		t.Fatal(err)
	}
	npred := core.Extrapolate(nres, 2.66)
	sim, err := timing.New(timing.Gainestown(4), p2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.SimulateFull()
	if err != nil {
		t.Fatal(err)
	}
	nerr := core.PercentError(npred.Seconds, full.RuntimeSeconds())

	t.Logf("LoopPoint err %.2f%%, naive err %.2f%%", lp.RuntimeErrPct, nerr)
	if lp.RuntimeErrPct > 15 {
		t.Errorf("LoopPoint error %.2f%% too high", lp.RuntimeErrPct)
	}
	if nerr < lp.RuntimeErrPct {
		t.Errorf("naive SimPoint (%.2f%%) outperformed LoopPoint (%.2f%%) on its worst case",
			nerr, lp.RuntimeErrPct)
	}
}

func TestSimCostModel(t *testing.T) {
	m := DefaultCostModel()
	total := 1e12 // a ref-sized app
	full := m.FullDetail(total)
	tb := m.TimeBasedTime(total, 0.01)
	par := m.SampledParallelTime(1e8)
	ser := m.SampledSerialTime(1e9)
	if full <= tb || tb <= par {
		t.Errorf("cost ordering violated: full %.0f, time-based %.0f, sampled-parallel %.0f", full, tb, par)
	}
	if ser <= par {
		t.Errorf("serial %.0f not slower than parallel %.0f", ser, par)
	}
	// Time-based is bounded by fast-forwarding the whole app.
	if tb < total/(m.FFwdMIPS*1e6) {
		t.Error("time-based cost below pure fast-forward floor")
	}
}

// SampledSerialTime returns the seconds to simulate all sampled regions
// back to back.
func (c SimCostModel) SampledSerialTime(totalSampled float64) float64 {
	return totalSampled / (c.DetailKIPS * 1e3)
}
