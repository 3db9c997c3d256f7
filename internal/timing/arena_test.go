package timing

import (
	"reflect"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

// recordedProfile records p, builds its DCFG and slices the recording
// into regions of about slice instructions at the stable loop markers —
// the analysis a test needs before it can extract region pinballs.
func recordedProfile(tb testing.TB, p *isa.Program, slice uint64) (*pinball.Pinball, *bbv.Profile) {
	tb.Helper()
	whole, err := pinball.Record(p, 5, 512)
	if err != nil {
		tb.Fatal(err)
	}
	db := dcfg.NewBuilder(p, p.NumThreads())
	if _, err := whole.Replay(p, db); err != nil {
		tb.Fatal(err)
	}
	g := db.Graph()
	var addrs []uint64
	for _, h := range g.StableMarkers(g.FindLoops(), 300) {
		addrs = append(addrs, h.Addr)
	}
	col := bbv.NewCollector(p, addrs, slice)
	if _, err := whole.Replay(p, col); err != nil {
		tb.Fatal(err)
	}
	prof := col.Finish()
	if len(prof.Regions) < 4 {
		tb.Fatalf("only %d regions", len(prof.Regions))
	}
	return whole, prof
}

// regionPinballs records a whole-program pinball and extracts a few
// region pinballs from it, for exercising the checkpoint and
// constrained paths on a reused Simulator.
func regionPinballs(t *testing.T) ([]*pinball.Pinball, *pinball.Pinball) {
	t.Helper()
	p := arenaProg()
	whole, prof := recordedProfile(t, p, 4*1500)
	var specs []pinball.RegionSpec
	for i := 1; i < 4; i++ {
		reg := prof.Regions[i]
		warm := prof.Regions[i-1]
		specs = append(specs, pinball.RegionSpec{
			Name:            "r" + string(rune('0'+i)),
			WarmupStartStep: warm.StartICount,
			StartStep:       reg.StartICount,
			EndStep:         reg.EndICount,
			Start:           reg.Start,
			End:             reg.End,
		})
	}
	rps, err := whole.ExtractRegions(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	return rps, whole
}

func arenaProg() *isa.Program { return testprog.Phased(4, 10, 150, omp.Passive) }

// TestResetIdentityCheckpoints: one Simulator reused across every
// region pinball (the worker arena path) reports byte-identical Stats
// to a fresh Simulator per region.
func TestResetIdentityCheckpoints(t *testing.T) {
	rps, _ := regionPinballs(t)
	p := arenaProg()
	reused, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	for i, rp := range rps {
		fresh, err := New(Gainestown(4), p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SimulateCheckpoint(rp)
		if err != nil {
			t.Fatalf("region %d fresh: %v", i, err)
		}
		got, err := reused.SimulateCheckpoint(rp)
		if err != nil {
			t.Fatalf("region %d reused: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("region %d: reused-Simulator stats differ from fresh-Simulator stats\nreused: %+v\nfresh:  %+v", i, got, want)
		}
	}
}

// TestResetIdentityAcrossModes: interleaving every simulation mode on
// one Simulator — full, region, checkpoint, constrained, periodic —
// leaves no residue: each run matches a fresh Simulator's run.
func TestResetIdentityAcrossModes(t *testing.T) {
	rps, whole := regionPinballs(t)
	p := arenaProg()
	reused, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		do   func(s *Simulator) (*Stats, error)
	}{
		{"full", func(s *Simulator) (*Stats, error) { return s.SimulateFull() }},
		{"checkpoint", func(s *Simulator) (*Stats, error) { return s.SimulateCheckpoint(rps[0]) }},
		{"constrained", func(s *Simulator) (*Stats, error) { return s.SimulateConstrained(whole) }},
		{"region", func(s *Simulator) (*Stats, error) {
			return s.SimulateRegion(rps[1].Region.Start, rps[1].Region.End, WarmupFunctional)
		}},
		{"periodic", func(s *Simulator) (*Stats, error) { return s.SimulatePeriodic(500, 2000) }},
		// Repeat the first mode: state left by the others must not leak in.
		{"full-again", func(s *Simulator) (*Stats, error) { return s.SimulateFull() }},
	}
	for _, run := range runs {
		fresh, err := New(Gainestown(4), p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := run.do(fresh)
		if err != nil {
			t.Fatalf("%s fresh: %v", run.name, err)
		}
		got, err := run.do(reused)
		if err != nil {
			t.Fatalf("%s reused: %v", run.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused-Simulator stats differ from fresh\nreused: %+v\nfresh:  %+v", run.name, got, want)
		}
	}
}

// TestSimulatorResetRestoresDefaults: Reset re-points the program and
// restores New's defaults, so a pooled Simulator with leftover Seed,
// Trace, or MaxSteps settings behaves like a fresh one.
func TestSimulatorResetRestoresDefaults(t *testing.T) {
	p := arenaProg()
	s, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed = 99
	s.MaxSteps = 7
	s.Trace = NewIPCTrace(1000)
	if err := s.Reset(p); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != fresh.Seed || s.MaxSteps != fresh.MaxSteps || s.Trace != nil {
		t.Fatalf("Reset left non-default knobs: %+v", s)
	}
	// Validation still applies: too many threads for the config fails.
	if err := s.Reset(testprog.Phased(8, 2, 10, omp.Passive)); err == nil {
		t.Fatal("Reset accepted a program with more threads than cores")
	}
}

// TestSystemResetAllocs: once the arena exists, re-arming it for the
// next region allocates nothing — the zero-per-region-growth guarantee
// the sampling pipeline relies on.
func TestSystemResetAllocs(t *testing.T) {
	p := arenaProg()
	s, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	m := exec.NewMachine(p, 1)
	sys := s.acquireSystem(m)
	if allocs := testing.AllocsPerRun(20, func() { sys.reset(m) }); allocs != 0 {
		t.Fatalf("system reset: %.1f allocs/op, want 0", allocs)
	}
}
