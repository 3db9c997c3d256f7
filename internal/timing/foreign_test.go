package timing_test

import (
	"errors"
	"testing"

	"looppoint/internal/core"
	"looppoint/internal/exec"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

// TestCheckpointOfAnotherProgram: a region pinball restored onto a program
// it was not recorded from fails with exec.ErrForeignSnapshot, in each
// entry point that restores one, instead of indexing past the program's
// threads or routines: a 4-thread 657.xz_s.2 checkpoint given the 2-thread
// 621.wrf_s.1, and the same checkpoint with one frame moved past the end
// of its own program.
func TestCheckpointOfAnotherProgram(t *testing.T) {
	build := func(name string, threads int) *workloads.App {
		spec, ok := workloads.Lookup(name)
		if !ok {
			t.Fatalf("no workload %q", name)
		}
		app, err := spec.Build(workloads.BuildParams{Threads: threads, Input: workloads.InputTest, Policy: omp.Passive})
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	xz, wrf := build("657.xz_s.2", 4), build("621.wrf_s.1", 2)
	a, err := core.Analyze(xz.Prog, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := a.Profile.Regions[0]
	cks, err := a.Pinball.ExtractRegions(xz.Prog, []pinball.RegionSpec{{Name: "r0", EndStep: r.EndICount, Start: r.Start, End: r.End}})
	if err != nil {
		t.Fatal(err)
	}
	ck := cks[0]

	badFrame := *ck
	snap := *ck.Start
	snap.Threads = append([]exec.ThreadSnapshot(nil), snap.Threads...)
	snap.Threads[1].Cur.Block = 1 << 20
	badFrame.Start = &snap

	for _, tc := range []struct {
		name string
		prog *workloads.App
		pb   *pinball.Pinball
	}{
		{"other program", wrf, ck},
		{"frame past the program", xz, &badFrame},
	} {
		sim, err := timing.New(timing.Gainestown(4), tc.prog.Prog)
		if err != nil {
			t.Fatal(err)
		}
		check := func(entry string, err error) {
			t.Helper()
			if !errors.Is(err, exec.ErrForeignSnapshot) {
				t.Errorf("%s: %s: err = %v, want ErrForeignSnapshot", tc.name, entry, err)
			}
		}
		_, err = sim.SimulateCheckpoint(tc.pb)
		check("SimulateCheckpoint", err)
		_, err = sim.SimulateConstrained(tc.pb)
		check("SimulateConstrained", err)
		_, err = tc.pb.Replay(tc.prog.Prog)
		check("Replay", err)
	}
}
