package pinball

import (
	"reflect"
	"slices"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/workloads"
)

// TestExtractRegionsFastSlowIdentical holds the block-batched extraction
// sweep to an independent per-instruction reference: for every spec, a
// stepReplay of the recording's first WarmupStartStep steps gives the
// snapshot, the syscall cursors and the marker hit counts the region
// pinball must carry. Every registered workload runs at its test input.
func TestExtractRegionsFastSlowIdentical(t *testing.T) {
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, spec := range workloads.All() {
				t.Run(spec.Name, func(t *testing.T) {
					app, err := spec.Build(workloads.BuildParams{Threads: 4, Input: workloads.InputTest, Policy: policy})
					if err != nil {
						t.Fatal(err)
					}
					checkExtraction(t, app.Prog)
				})
			}
		})
	}
}

func checkExtraction(t *testing.T, p *isa.Program) {
	pb, err := Record(p, 5, 256)
	if err != nil {
		t.Fatal(err)
	}
	steps := pb.Schedule.Steps()
	// The most-entered main-image block gives the hit-count rebasing
	// something to track.
	entries := map[uint64]uint64{}
	if _, err := pb.stepReplay(p, func(ev *exec.BlockEvent) {
		if ev.Entries > 0 && !ev.Block.Routine.Image.Sync {
			entries[ev.Block.Addr]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	var markerPC uint64
	for pc, n := range entries {
		if n > entries[markerPC] || (n == entries[markerPC] && pc < markerPC) {
			markerPC = pc
		}
	}
	specs := []RegionSpec{
		{Name: "r0", WarmupStartStep: 0, StartStep: steps / 8, EndStep: steps / 4,
			Start: bbv.Marker{PC: markerPC, Count: 1}, End: bbv.Marker{PC: markerPC, Count: 2}},
		{Name: "r1", WarmupStartStep: steps / 4, StartStep: steps / 3, EndStep: steps / 2,
			Start: bbv.Marker{PC: markerPC, Count: 2}, End: bbv.Marker{PC: markerPC, Count: 3}},
		{Name: "r2", WarmupStartStep: steps/2 + 1, StartStep: steps/2 + 2, EndStep: steps - 1},
	}

	got, err := pb.ExtractRegions(p, specs)
	if err != nil {
		t.Fatalf("extraction: %v", err)
	}
	for i, s := range specs {
		prefix := *pb
		prefix.Schedule = pb.Schedule.Window(0, s.WarmupStartStep)
		prefix.FinalChecksum = 0
		hits := map[uint64]uint64{}
		m, err := prefix.stepReplay(p, func(ev *exec.BlockEvent) {
			if ev.Entries > 0 {
				hits[ev.Block.Addr]++
			}
		})
		if err != nil {
			t.Fatalf("%s: reference replay: %v", s.Name, err)
		}
		r := got[i]
		if !reflect.DeepEqual(r.Start, m.Snapshot()) {
			t.Errorf("%s: snapshot differs from the per-instruction reference", s.Name)
		}
		pos := m.OS.(*exec.ReplayOS).Positions()
		for tid := range pb.Syscalls {
			if !slices.Equal(r.Syscalls[tid], pb.Syscalls[tid][pos[tid]:]) {
				t.Errorf("%s: thread %d syscall slice differs", s.Name, tid)
			}
		}
		if want := pb.Schedule.Window(s.WarmupStartStep, s.EndStep-s.WarmupStartStep); !reflect.DeepEqual(r.Schedule, want) {
			t.Errorf("%s: schedule window differs", s.Name)
		}
		if r.WarmupSteps != s.StartStep-s.WarmupStartStep {
			t.Errorf("%s: WarmupSteps = %d, want %d", s.Name, r.WarmupSteps, s.StartStep-s.WarmupStartStep)
		}
		if r.StartHitsAtSnapshot != hits[s.Start.PC] || r.EndHitsAtSnapshot != hits[s.End.PC] {
			t.Errorf("%s: hits at snapshot = (%d, %d), want (%d, %d)", s.Name,
				r.StartHitsAtSnapshot, r.EndHitsAtSnapshot, hits[s.Start.PC], hits[s.End.PC])
		}
		if _, err := r.Replay(p); err != nil {
			t.Errorf("%s: replay: %v", s.Name, err)
		}
	}
}

// TestReplayRoutesBlockObservers pins that the two replay entry points
// see one execution: a Collector fed block events by Replay and one fed
// every instruction as an event of its own by stepReplay build the same
// profile.
func TestReplayRoutesBlockObservers(t *testing.T) {
	p := testprog.Phased(2, 3, 60, omp.Passive)
	pb, err := Record(p, 9, 128)
	if err != nil {
		t.Fatal(err)
	}
	prof := func(perInstr bool) *bbv.Profile {
		c := bbv.NewCollector(p, nil, 1000)
		c.SliceOnICount()
		var err error
		if perInstr {
			_, err = pb.stepReplay(p, c.OnBlock)
		} else {
			_, err = pb.Replay(p, c)
		}
		if err != nil {
			t.Fatalf("replay (perInstr=%v): %v", perInstr, err)
		}
		return c.Finish()
	}
	if !reflect.DeepEqual(prof(true), prof(false)) {
		t.Fatal("profiles differ between Replay and stepReplay")
	}
}
