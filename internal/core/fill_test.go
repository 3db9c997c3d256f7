package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pool"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

// simulatedReport is Run's report computed the way it was before region 0
// could be read off the full run: the strict or degraded sweep simulates
// every point at width 1, and the full run is a separate SimulateFull.
func simulatedReport(t *testing.T, p *isa.Program, cfg Config, simCfg timing.Config, opts RunOpts) *Report {
	t.Helper()
	a, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	regions, deg, err := SimulateRegions(context.Background(), sel, simCfg, SimOpts{
		Width: 1, Degraded: opts.Degraded, MinCoverage: opts.MinCoverage,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{
		Name:        p.Name,
		Selection:   sel,
		Regions:     regions,
		Degradation: deg,
		Predicted:   ExtrapolateDegraded(regions, simCfg.FreqGHz, deg),
		Intervals:   ComputeIntervals(sel, regions, simCfg.FreqGHz, a.Config.Confidence),
		Speedups:    ComputeTheoretical(sel),
	}
	sim, err := timing.New(simCfg, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.Seed = cfg.Seed // as Run seeds it: 0 stays 0
	if rep.Full, err = sim.SimulateFull(); err != nil {
		t.Fatal(err)
	}
	rep.computeErrors()
	return rep
}

// simCount counts the detailed simulations simGauge sees start.
type simCount struct {
	mu            sync.Mutex
	full, regions int
}

func countSims(t *testing.T) *simCount {
	t.Helper()
	c := &simCount{}
	prev := simGauge
	simGauge = func(full bool, delta int) {
		if delta < 0 {
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if full {
			c.full++
		} else {
			c.regions++
		}
	}
	t.Cleanup(func() { simGauge = prev })
	return c
}

// wholeRun is a configuration whose slice is longer than any test
// program, so the profile is one region that ends with the program.
func wholeRun() Config {
	cfg := testConfig()
	cfg.SliceUnit = 1 << 40
	return cfg
}

// TestRunFillCountsSimulations: with the full run requested, region 0 is
// not simulated a second time where the rule allows it — at width 1 a
// single-region program runs one detailed simulation (the full run, was
// two) and a multi-region program with region 0 selected runs
// len(points) (was len(points)+1); at width 2 only the whole-run case
// drops. Every report equals the one the sweep computes by simulating
// every point.
func TestRunFillCountsSimulations(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	simCfg := timing.Gainestown(4)
	cases := []struct {
		name  string
		cfg   Config
		width int
		// filled reports whether region 0 is read off the full run.
		filled bool
	}{
		{"whole-run/width-1", wholeRun(), 1, true},
		{"whole-run/width-2", wholeRun(), 2, true},
		{"prefix/width-1", testConfig(), 1, true},
		{"prefix/width-2", testConfig(), 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := RunOpts{SimulateFull: true, Width: tc.width}
			want := simulatedReport(t, p, tc.cfg, simCfg, opts)
			points := len(want.Selection.Points)
			if want.Selection.Points[0].Region.Index != 0 {
				t.Fatalf("region 0 is not selected; the case needs it")
			}
			if whole := want.Selection.Points[0].Region.End.IsEnd; whole != (points == 1) {
				t.Fatalf("%d points, region 0 ends with the program: %v", points, whole)
			}
			c := countSims(t)
			rep, err := Run(context.Background(), p, tc.cfg, simCfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantRegions := points
			if tc.filled {
				wantRegions--
			}
			if c.full != 1 || c.regions != wantRegions {
				t.Errorf("%d full run(s) and %d region simulations for %d points, want 1 and %d",
					c.full, c.regions, points, wantRegions)
			}
			if got := deterministicOf(rep); !reflect.DeepEqual(got, deterministicOf(want)) {
				t.Errorf("report differs from the all-simulated one:\n%+v\nvs\n%+v", got, deterministicOf(want))
			}
			// A filled point's HostTime is the full run's up to the tap; a
			// simulated one's is its own run's, unrelated to the full run's.
			if h := rep.Regions[0].HostTime; tc.filled && (h <= 0 || h > rep.FullHostTime) {
				t.Errorf("region 0 HostTime %v, full run %v", h, rep.FullHostTime)
			}
			if rep.Regions[0].Stats == rep.Full {
				t.Error("region 0 aliases the full run's statistics")
			}
		})
	}
}

// randTrips builds a program whose SysRand results set its loop trip
// counts: each thread draws its inner trip count every timestep, so which
// instructions run depends on which answers each thread gets.
func randTrips(nthreads int, timesteps int64, policy omp.WaitPolicy) *isa.Program {
	p := isa.NewProgram("randtrips", nthreads)
	main := p.AddImage("main", false)
	rt := omp.New(p, policy)
	bar := rt.NewBarrier("step")
	r := main.NewRoutine("thread_main")
	entry := r.NewBlock("entry")
	step := r.NewBlock("timestep")
	loop := r.NewBlock("work_loop")
	latch := r.NewBlock("latch")
	done := r.NewBlock("done")
	entry.IMovI(0, 0)
	entry.Br(step)
	step.Syscall(2, isa.SysRand, 0)
	step.IOpI(isa.OpIRem, 2, 2, 97)
	step.IOpI(isa.OpIAdd, 2, 2, 20)
	step.IMovI(1, 0)
	step.Br(loop)
	loop.IOp(isa.OpIAdd, 3, 3, 1)
	loop.IOpI(isa.OpIAdd, 1, 1, 1)
	loop.BrCond(isa.CondLT, 1, 2, loop, latch)
	rt.EmitBarrier(latch, bar)
	latch.IOpI(isa.OpIAdd, 0, 0, 1)
	latch.BrCondI(isa.CondLT, 0, timesteps, step, done)
	done.Halt()
	for tid := 0; tid < nthreads; tid++ {
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		panic(err)
	}
	return p
}

// TestRunFillDeclinesInjectedSyscalls: a checkpoint whose recording
// injected syscall results does not see the full run's OS answers, so the
// rule declines it and Run simulates region 0 as the sweep always did; a
// binary-driven run of the same program is seeded like the full run and
// is read off it — unless the caller left the seed 0, which Analyze fills
// and the full run does not. Every report equals the all-simulated one.
func TestRunFillDeclinesInjectedSyscalls(t *testing.T) {
	p := randTrips(4, 12, omp.Passive)
	simCfg := timing.Gainestown(4)
	cases := []struct {
		mode  RegionSimMode
		seed  uint64
		fills bool
	}{
		{RegionSimCheckpoint, DefaultConfig().Seed, false},
		{RegionSimBinaryDriven, DefaultConfig().Seed, true},
		{RegionSimBinaryDriven, 0, false},
	}
	for _, tc := range cases {
		for _, width := range []int{1, 2} {
			cfg := wholeRun()
			cfg.RegionSim, cfg.Seed = tc.mode, tc.seed
			opts := RunOpts{SimulateFull: true, Width: width}
			want := simulatedReport(t, p, cfg, simCfg, opts)
			if _, fills := firstPointTap(want.Selection, cfg.Seed); fills != tc.fills {
				t.Fatalf("%v, seed %d: the rule reads region 0 off the full run: %v", tc.mode, tc.seed, fills)
			}
			c := countSims(t)
			rep, err := Run(context.Background(), p, cfg, simCfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if wantRegions := len(rep.Selection.Points) - btoi(tc.fills); c.regions != wantRegions {
				t.Errorf("%v, seed %d, width %d: %d region simulations, want %d",
					tc.mode, tc.seed, width, c.regions, wantRegions)
			}
			if got := deterministicOf(rep); !reflect.DeepEqual(got, deterministicOf(want)) {
				t.Errorf("%v, seed %d, width %d: report differs from the all-simulated one:\n%+v\nvs\n%+v",
					tc.mode, tc.seed, width, got, deterministicOf(want))
			}
		}
	}
}

// TestRunFillSimulatesWhenTapNeverFires: a full run that fails before its
// tap leaves region 0 to the sweep, which simulates it like any other
// point, and Run ends the way the all-simulating order does: with the full
// run's panic re-raised on the caller's goroutine.
func TestRunFillSimulatesWhenTapNeverFires(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	a, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := firstPointTap(sel, a.Config.Seed); !ok {
		t.Fatal("region 0 is not read off the full run; the test needs it")
	}
	c := countSims(t)
	boom := errors.New("the full run fails before its tap")
	count := simGauge
	simGauge = func(full bool, delta int) {
		count(full, delta)
		if full && delta > 0 {
			panic(boom)
		}
	}
	defer func() {
		if pe, ok := recover().(*pool.PanicError); !ok || pe.Value != boom {
			t.Fatalf("Run did not re-raise the full run's panic")
		}
		if c.full != 1 || c.regions != len(sel.Points) {
			t.Errorf("%d full run(s) and %d region simulations for %d points, want 1 and %d",
				c.full, c.regions, len(sel.Points), len(sel.Points))
		}
	}()
	Run(context.Background(), p, testConfig(), timing.Gainestown(4), RunOpts{SimulateFull: true, Width: 1})
	t.Fatal("Run returned after its full run panicked")
}

// injectedAt is the text of a transient fault injected at
// core.region.sim's invocation i.
func injectedAt(i int) string {
	return fmt.Sprintf("faults: injected transient fault at core.region.sim[%d]", i)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRunFillDegradedMatchesSweep: a degraded run that loses a non-zero
// point while region 0 is read off the full run reports the same loss,
// survivors and prediction as the sweep that simulates region 0 and loses
// the same point. The filled point never reaches the core.region.sim
// fault site, so the run's first invocation is point 1 and the sweep's
// second; the error texts differ only in that invocation index.
func TestRunFillDegradedMatchesSweep(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	simCfg := timing.Gainestown(4)
	opts := RunOpts{SimulateFull: true, Width: 1, Degraded: true, MinCoverage: 0.01}
	lose := func(after uint64) func() {
		return faults.Enable(faults.NewPlan(1, faults.Rule{
			Site: "core.region.sim", Kind: faults.Transient, Rate: 1, Count: 1, After: after}))
	}

	restore := lose(1)
	want := simulatedReport(t, p, testConfig(), simCfg, opts)
	restore()
	if want.Selection.Points[0].Region.Index != 0 {
		t.Fatal("region 0 is not selected; the test needs it")
	}
	if f := want.Degradation; !f.Degraded() || len(f.Failed) != 1 || f.Failed[0].Region == 0 {
		t.Fatalf("the sweep did not lose exactly one non-zero point: %+v", f)
	}

	restore = lose(0)
	rep, err := Run(context.Background(), p, testConfig(), simCfg, opts)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	got, exp := deterministicOf(rep), deterministicOf(want)
	if !rep.Degradation.Degraded() || len(rep.Degradation.Failed) != 1 {
		t.Fatalf("degradation %+v, want one lost point", rep.Degradation)
	}
	if g, w := rep.Degradation.Failed[0].Err, want.Degradation.Failed[0].Err; g != injectedAt(0) || w != injectedAt(1) {
		t.Errorf("lost with %q, the sweep with %q", g, w)
	}
	withoutErr := func(d Degradation) Degradation {
		d.Failed = append([]RegionFailure(nil), d.Failed...)
		d.Failed[0].Err = ""
		return d
	}
	if g, w := withoutErr(*rep.Degradation), withoutErr(*want.Degradation); !reflect.DeepEqual(g, w) {
		t.Errorf("degradation %+v, want %+v", g, w)
	}
	if !reflect.DeepEqual(got.Regions, exp.Regions) {
		t.Error("survivors differ from the sweep's")
	}
	if got.Predicted != exp.Predicted {
		t.Errorf("predicted %+v, want %+v", got.Predicted, exp.Predicted)
	}
}
