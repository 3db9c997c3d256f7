package baselines

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/core"
	"looppoint/internal/omp"
	"looppoint/internal/workloads"
)

// TestBaselineProfilesRideTheRecording is the differential test for the
// baseline profiles: a collector riding the baseline's own recording must
// produce what the two-pass reference produces — LoopPoint's whole
// analysis, then a replay of its pinball into the same collector — over
// every registered workload and both wait policies. The profiles, the
// pinball's schedule and final checksum, the selected points and the
// BarrierPoint applicability verdict must all be equal.
func TestBaselineProfilesRideTheRecording(t *testing.T) {
	var barrier, noBarriers, naive atomic.Int64
	t.Run("workloads", func(t *testing.T) {
		for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
			for _, spec := range workloads.All() {
				t.Run(fmt.Sprintf("%s/%v", spec.Name, policy), func(t *testing.T) {
					t.Parallel()
					app, err := spec.Build(workloads.BuildParams{Threads: 4, Input: workloads.InputTest, Policy: policy})
					if err != nil {
						t.Fatal(err)
					}
					profilesRide(t, app, &barrier, &noBarriers, &naive)
				})
			}
		}
	})
	t.Logf("compared %d barrier profiles, %d ErrNoBarriers cases, %d naive profiles",
		barrier.Load(), noBarriers.Load(), naive.Load())
	if barrier.Load() == 0 || noBarriers.Load() == 0 || naive.Load() == 0 {
		t.Error("every comparison kind must occur at least once")
	}
}

// profilesRide compares both baseline analyses of one workload with their
// two-pass references.
func profilesRide(t *testing.T, app *workloads.App, barrier, noBarriers, naive *atomic.Int64) {
	prog, release := app.Prog, app.Runtime.BarrierReleaseAddr()
	cfg := core.DefaultConfig()
	a, err := core.Analyze(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}

	bcol := bbv.NewCollector(prog, []uint64{release}, 1)
	if _, err := a.Pinball.Replay(prog, bcol); err != nil {
		t.Fatal(err)
	}
	bref := bcol.Finish()
	bpa, err := AnalyzeBarrierPoint(prog, release, cfg)
	if refNone := len(bref.Regions) <= 1; refNone != errors.Is(err, ErrNoBarriers) {
		t.Fatalf("reference has no barriers: %v; AnalyzeBarrierPoint: %v", refNone, err)
	}
	switch {
	case errors.Is(err, ErrNoBarriers):
		noBarriers.Add(1)
	case err != nil:
		t.Fatal(err)
	default:
		ref := &core.Analysis{Prog: prog, Pinball: a.Pinball, Markers: []uint64{release}, Profile: bref, Config: cfg}
		sameAnalysis(t, "barrierpoint", bpa, ref)
		barrier.Add(1)
	}

	ncfg := cfg
	ncfg.NoSpinFilter, ncfg.SumBBVs = true, true
	ncol := bbv.NewCollector(prog, nil, cfg.SliceUnit*uint64(prog.NumThreads()))
	ncol.DisableSyncFilter()
	ncol.SliceOnICount()
	if _, err := a.Pinball.Replay(prog, ncol); err != nil {
		t.Fatal(err)
	}
	na, err := NaiveSimPointAnalysis(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameAnalysis(t, "naive", na, &core.Analysis{Prog: prog, Pinball: a.Pinball, Profile: ncol.Finish(), Config: ncfg})
	naive.Add(1)
}

// sameAnalysis fails unless got matches the reference's profile, pinball
// schedule and final checksum, and selected points.
func sameAnalysis(t *testing.T, what string, got, ref *core.Analysis) {
	t.Helper()
	if !reflect.DeepEqual(got.Profile, ref.Profile) {
		t.Errorf("%s: profile differs from the replayed reference (%d vs %d regions)",
			what, len(got.Profile.Regions), len(ref.Profile.Regions))
	}
	if !reflect.DeepEqual(got.Pinball.Schedule, ref.Pinball.Schedule) {
		t.Errorf("%s: recorded schedule differs", what)
	}
	if got.Pinball.FinalChecksum != ref.Pinball.FinalChecksum {
		t.Errorf("%s: final checksum %x, want %x", what, got.Pinball.FinalChecksum, ref.Pinball.FinalChecksum)
	}
	gsel, err := core.Select(got)
	if err != nil {
		t.Fatal(err)
	}
	rsel, err := core.Select(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gsel.Points, rsel.Points) {
		t.Errorf("%s: selected %d points, reference %d; they differ", what, len(gsel.Points), len(rsel.Points))
	}
}
