package timing_test

import (
	"fmt"
	"reflect"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/core"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

// tapCase is one program and seed whose region 0 the tap is checked on.
type tapCase struct {
	name string
	prog *isa.Program
	seed uint64
}

// tapCases are the region-0 points core reads off the full run in the
// validation jobs: every registered workload at test input with 2 and 4
// threads under both wait policies (seed 1), and the four train-input
// validation apps at seeds 1 and 2.
func tapCases(t *testing.T) []tapCase {
	t.Helper()
	build := func(name string, par workloads.BuildParams) *isa.Program {
		spec, ok := workloads.Lookup(name)
		if !ok {
			t.Fatalf("no workload %q", name)
		}
		app, err := spec.Build(par)
		if err != nil {
			t.Fatal(err)
		}
		return app.Prog
	}
	var cases []tapCase
	for _, spec := range workloads.All() {
		for _, threads := range []int{2, 4} {
			for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
				p := build(spec.Name, workloads.BuildParams{Threads: threads, Input: workloads.InputTest, Policy: policy})
				cases = append(cases, tapCase{fmt.Sprintf("%s/test/%d/%v", spec.Name, threads, policy), p, 1})
			}
		}
	}
	train := []struct {
		name   string
		policy omp.WaitPolicy
	}{
		{"657.xz_s.2", omp.Passive}, {"621.wrf_s.1", omp.Passive},
		{"627.cam4_s.1", omp.Passive}, {"644.nab_s.1", omp.Active},
	}
	for _, app := range train {
		p := build(app.name, workloads.BuildParams{Input: workloads.InputTrain, Policy: app.policy})
		for _, seed := range []uint64{1, 2} {
			cases = append(cases, tapCase{fmt.Sprintf("%s/train/seed-%d", app.name, seed), p, seed})
		}
	}
	return cases
}

// TestSimulateFullTapIsRegionZero: tapped at region 0's end marker, the
// full run's statistics equal an untapped SimulateFull, and the tap's
// equal SimulateCheckpoint of the region-0 pinball: the simulation
// core.Run skips when it reads region 0 off the full run.
func TestSimulateFullTapIsRegionZero(t *testing.T) {
	cases := tapCases(t)
	if len(cases) != 4*len(workloads.All())+8 {
		t.Fatalf("%d cases", len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := core.DefaultConfig()
			cfg.Seed = tc.seed
			a, err := core.Analyze(tc.prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := a.Profile.Regions[0]
			cks, err := a.Pinball.ExtractRegions(tc.prog, []pinball.RegionSpec{{
				Name: "r0", EndStep: r.EndICount, Start: r.Start, End: r.End,
			}})
			if err != nil {
				t.Fatal(err)
			}
			for tid, log := range cks[0].Syscalls {
				if len(log) > 0 {
					t.Fatalf("thread %d's recording injected %d syscall results", tid, len(log))
				}
			}
			sim := newSim(t, tc.prog, tc.seed)
			want, err := sim.SimulateFull()
			if err != nil {
				t.Fatal(err)
			}
			region, err := sim.SimulateCheckpoint(cks[0])
			if err != nil {
				t.Fatal(err)
			}
			var taps []*timing.Stats
			full, err := sim.SimulateFullTap(r.End, func(st *timing.Stats) { taps = append(taps, st) })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(full, want) {
				t.Errorf("tapped full run %v, untapped %v", full, want)
			}
			if len(taps) != 1 {
				t.Fatalf("tap at %v fired %d times", r.End, len(taps))
			}
			if !reflect.DeepEqual(taps[0], region) {
				t.Errorf("tap at %v: %v, region-0 checkpoint: %v", r.End, taps[0], region)
			}
			if taps[0] == full {
				t.Error("the tap aliases the full statistics")
			}
		})
	}
}

// TestSimulateFullTapNotReached: a tap the run never reaches reports
// nothing — it never hands back a zero or partial Stats — and neither does
// a start or instruction-count tap; the full statistics are unchanged.
func TestSimulateFullTapNotReached(t *testing.T) {
	p := npbCG(t)
	a, err := core.Analyze(p, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim(t, p, 42)
	want, err := sim.SimulateFull()
	if err != nil {
		t.Fatal(err)
	}
	for _, tap := range []bbv.Marker{
		{PC: a.Markers[0], Count: 1 << 62},
		{},
		{Count: 10},
	} {
		full, err := sim.SimulateFullTap(tap, func(st *timing.Stats) {
			t.Errorf("tap %v fired with %v", tap, st)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full, want) {
			t.Errorf("tap %v: full run %v, untapped %v", tap, full, want)
		}
	}
}

func npbCG(t *testing.T) *isa.Program {
	t.Helper()
	spec, ok := workloads.Lookup("npb-cg")
	if !ok {
		t.Fatal("no npb-cg workload")
	}
	app, err := spec.Build(workloads.BuildParams{Threads: 4, Input: workloads.InputTest, Policy: omp.Passive})
	if err != nil {
		t.Fatal(err)
	}
	return app.Prog
}

func newSim(t *testing.T, p *isa.Program, seed uint64) *timing.Simulator {
	t.Helper()
	sim, err := timing.New(timing.Gainestown(p.NumThreads()), p)
	if err != nil {
		t.Fatal(err)
	}
	sim.Seed = seed
	return sim
}
