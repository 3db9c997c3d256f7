package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

// deterministic is everything in a Report that must not depend on the
// width: all of it but the host times and the actual speedups derived
// from them.
type deterministic struct {
	Points      []LoopPoint
	Regions     []RegionResult // HostTime zeroed
	Predicted   Prediction
	Intervals   *Intervals
	Full        *timing.Stats
	Errs        [6]float64
	Theoretical [2]float64
}

func deterministicOf(rep *Report) deterministic {
	d := deterministic{
		Points:    rep.Selection.Points,
		Predicted: rep.Predicted,
		Intervals: rep.Intervals,
		Full:      rep.Full,
		Errs: [6]float64{rep.RuntimeErrPct, rep.CyclesErrPct, rep.BranchMPKIDiff,
			rep.L1DMPKIDiff, rep.L2MPKIDiff, rep.L3MPKIDiff},
		Theoretical: [2]float64{rep.Speedups.TheoreticalSerial, rep.Speedups.TheoreticalParallel},
	}
	for _, r := range rep.Regions {
		r.HostTime = 0
		d.Regions = append(d.Regions, r)
	}
	return d
}

func suiteApp(t *testing.T, name string, policy omp.WaitPolicy) *isa.Program {
	t.Helper()
	spec, ok := workloads.Lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	app, err := spec.Build(workloads.BuildParams{Threads: 2, Input: "test", Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return app.Prog
}

// TestRunOverlapIdentical: starting the full run at t = 0 and sharing the
// width with it changes when simulations run, never what they compute —
// every deterministic field of the report is identical at width 1 (the
// serial phase order), 2, 4, and at width 2 on a single P, for both
// region-simulation modes.
func TestRunOverlapIdentical(t *testing.T) {
	progs := map[string]*isa.Program{
		"phased":       testprog.Phased(4, 8, 120, omp.Passive),
		"644.nab/spin": suiteApp(t, "644.nab_s.1", omp.Active),
	}
	for name, p := range progs {
		for _, mode := range []RegionSimMode{RegionSimCheckpoint, RegionSimBinaryDriven} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				cfg := testConfig()
				cfg.RegionSim = mode
				simCfg := timing.Gainestown(p.NumThreads())
				run := func(width int) deterministic {
					rep, err := Run(context.Background(), p, cfg, simCfg, RunOpts{SimulateFull: true, Width: width})
					if err != nil {
						t.Fatalf("width %d: %v", width, err)
					}
					if rep.Full == nil || rep.FullHostTime <= 0 || rep.Speedups.ActualSerial <= 0 {
						t.Fatalf("width %d: full run missing from the report", width)
					}
					return deterministicOf(rep)
				}
				base := run(1)
				for _, width := range []int{2, 4} {
					if got := run(width); !reflect.DeepEqual(got, base) {
						t.Errorf("width %d differs from width 1:\n%+v\nvs\n%+v", width, got, base)
					}
				}
				prev := runtime.GOMAXPROCS(1)
				got := run(2)
				runtime.GOMAXPROCS(prev)
				if !reflect.DeepEqual(got, base) {
					t.Errorf("width 2 under GOMAXPROCS(1) differs from width 1")
				}
			})
		}
	}
}

// simWatch is the test side of simGauge: it counts simulations in flight
// and, when rendezvous > 0, parks every region attempt at its start until
// that many regions are in flight at once — which a sweep sharing its
// budget with a live full run can only reach after that run has ended.
type simWatch struct {
	t                    *testing.T
	mu                   sync.Mutex
	inFlight, peak       int
	regions              int
	fullStarts, fullEnds int
	regionsWhileFull     int // most regions in flight beside the full run
	rendezvous           int
	reached              chan struct{}
	reachedOnce          sync.Once
	onFullStart          func()
}

func watchSims(t *testing.T, rendezvous int) *simWatch {
	t.Helper()
	w := &simWatch{t: t, rendezvous: rendezvous, reached: make(chan struct{})}
	prev := simGauge
	simGauge = w.gauge
	t.Cleanup(func() { simGauge = prev })
	return w
}

func (w *simWatch) gauge(full bool, delta int) {
	w.mu.Lock()
	w.inFlight += delta
	if w.inFlight > w.peak {
		w.peak = w.inFlight
	}
	if full {
		if delta > 0 {
			w.fullStarts++
		} else {
			w.fullEnds++
		}
	} else {
		w.regions += delta
		if w.fullStarts > w.fullEnds && w.regions > w.regionsWhileFull {
			w.regionsWhileFull = w.regions
		}
		if w.rendezvous > 0 && w.regions == w.rendezvous {
			w.reachedOnce.Do(func() { close(w.reached) })
		}
	}
	start := w.onFullStart
	w.mu.Unlock()
	switch {
	case full && delta > 0 && start != nil:
		start()
	case !full && delta > 0 && w.rendezvous > 0:
		select {
		case <-w.reached:
		case <-time.After(30 * time.Second):
			w.t.Errorf("the sweep never had %d regions in flight at once", w.rendezvous)
		}
	}
}

// settled asserts the completion flag: when Run has returned, the full
// run it started has ended and nothing is in flight.
func (w *simWatch) settled(t *testing.T, wantFull int) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fullStarts != wantFull || w.fullEnds != w.fullStarts || w.inFlight != 0 {
		t.Errorf("at return: %d full run(s) started (want %d), %d ended, %d simulation(s) still in flight",
			w.fullStarts, wantFull, w.fullEnds, w.inFlight)
	}
}

// TestRunBudgetBoundsSimulationsInFlight: the width bounds regions and
// the full run together — never more than width simulations in flight, at
// most width-1 regions while the full run is alive — and the sweep gets
// the full run's slot when that run ends: it reaches width regions at
// once, which the rendezvous makes every attempt wait for.
func TestRunBudgetBoundsSimulationsInFlight(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	for _, width := range []int{2, 3} {
		w := watchSims(t, width)
		rep, err := Run(context.Background(), p, testConfig(), timing.Gainestown(4), RunOpts{SimulateFull: true, Width: width})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(rep.Regions) < width {
			t.Fatalf("width %d: only %d looppoints, the rendezvous needs %d", width, len(rep.Regions), width)
		}
		w.settled(t, 1)
		if w.peak > width {
			t.Errorf("width %d: %d simulations in flight at once", width, w.peak)
		}
		if w.regionsWhileFull > width-1 {
			t.Errorf("width %d: %d regions in flight beside the full run, want <= %d", width, w.regionsWhileFull, width-1)
		}
		select {
		case <-w.reached:
		default:
			t.Errorf("width %d: the sweep never ran %d wide", width, width)
		}
	}
}

// TestRunBudgetJoinsFullRunOnEveryPath: whichever way the sampled lane
// ends — a failed sweep, a context cancelled during Analyze, a slow
// region — Run returns what the serial order returns, and only after the
// overlapped full run has finished.
func TestRunBudgetJoinsFullRunOnEveryPath(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	simCfg := timing.Gainestown(4)

	t.Run("sweep-error", func(t *testing.T) {
		// One fault, on the sweep's first invocation whichever region
		// makes it: the sweep fails with it at every width.
		first := faults.Rule{Site: "core.region.sim", Kind: faults.Transient, Rate: 1, Count: 1}
		run := func(width int) error {
			defer faults.Enable(faults.NewPlan(1, first))()
			_, err := Run(context.Background(), p, testConfig(), simCfg, RunOpts{SimulateFull: true, Width: width})
			return err
		}
		want := run(1)
		if !errors.Is(want, faults.ErrInjected) {
			t.Fatalf("width 1: err = %v, want the injected fault", want)
		}
		w := watchSims(t, 0)
		got := run(2)
		w.settled(t, 1)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("overlapped run: err = %v, serial order: %v", got, want)
		}
	})

	t.Run("cancel-during-analyze", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w := watchSims(t, 0)
		// The full run starts before Analyze and Analyze does not poll
		// ctx, so cancelling here lands during (or just before) it.
		w.onFullStart = cancel
		_, err := Run(ctx, p, testConfig(), simCfg, RunOpts{SimulateFull: true, Width: 2})
		w.settled(t, 1)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("slow-region", func(t *testing.T) {
		// A region that runs long stays inside its slot until it ends: Run
		// returns only after every simulation it started has ended, and the
		// slow region never pushes the width past its budget.
		defer faults.Enable(faults.NewPlan(1, faults.Rule{
			Site: "core.region.sim", Kind: faults.Slow, Rate: 1, Count: 1, Delay: 200 * time.Millisecond}))()
		w := watchSims(t, 0)
		rep, err := Run(context.Background(), p, testConfig(), simCfg, RunOpts{SimulateFull: true, Width: 2})
		if err != nil {
			t.Fatal(err)
		}
		w.settled(t, 1)
		if w.peak > 2 {
			t.Errorf("%d simulations in flight at once, want <= 2", w.peak)
		}
		if len(rep.Regions) != len(rep.Selection.Points) {
			t.Errorf("%d of %d regions simulated", len(rep.Regions), len(rep.Selection.Points))
		}
	})
}

// TestRunBudgetSlotWaitOutsideHostTime: a region that waits for a slot —
// as it does behind a full run far longer than any region — starts its
// HostTime clock when it holds the slot, not when it starts waiting. The
// test plays the full run itself, holding the only slot of a width-1
// budget for hold.
func TestRunBudgetSlotWaitOutsideHostTime(t *testing.T) {
	sel := testSelection(t)
	const hold = 500 * time.Millisecond
	slots := make(chan struct{}, 1)
	slots <- struct{}{}
	released := make(chan time.Time, 1)
	go func() {
		time.Sleep(hold)
		released <- time.Now()
		<-slots
	}()
	res, err := SimulateRegions(context.Background(), sel, timing.Gainestown(4), SimOpts{
		Width: 1, slots: slots,
	})
	if err != nil {
		t.Fatalf("sweep behind a held slot: %v", err)
	}
	for _, r := range res {
		if r.HostTime >= hold/2 {
			t.Errorf("region %d: HostTime %v includes the slot wait", r.Point.Region.Index, r.HostTime)
		}
	}
	if len(res) != len(sel.Points) || time.Now().Before(<-released) {
		t.Fatalf("%d of %d regions simulated, or the sweep finished before the slot was released", len(res), len(sel.Points))
	}
}
