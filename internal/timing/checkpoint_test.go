package timing

import (
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

func TestSimulateCheckpointMatchesRegionSpan(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	pb, err := pinball.RecordWithOptions(p, 5, exec.RunOpts{FlowWindow: 512})
	if err != nil {
		t.Fatal(err)
	}
	db := dcfg.NewBuilder(p, 4)
	if _, err := pb.Replay(p, db); err != nil {
		t.Fatal(err)
	}
	g := db.Graph()
	var addrs []uint64
	for _, h := range g.StableMarkers(g.FindLoops(), 300) {
		addrs = append(addrs, h.Addr)
	}
	col := bbv.NewCollector(p, addrs, 4*1500)
	if _, err := pb.Replay(p, col); err != nil {
		t.Fatal(err)
	}
	prof := col.Finish()
	if len(prof.Regions) < 4 {
		t.Fatalf("only %d regions", len(prof.Regions))
	}

	// Extract region 2 with region 1 as warmup, simulate from checkpoint.
	reg := prof.Regions[2]
	warm := prof.Regions[1]
	rps, err := pb.ExtractRegions(p, []pinball.RegionSpec{{
		Name:            "r2",
		WarmupStartStep: warm.StartICount,
		StartStep:       reg.StartICount,
		EndStep:         reg.EndICount,
		Start:           reg.Start,
		End:             reg.End,
	}})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.SimulateCheckpoint(rps[0])
	if err != nil {
		t.Fatalf("SimulateCheckpoint: %v", err)
	}
	got, want := float64(st.Instructions), float64(reg.UnfilteredLen())
	if got < want*0.85 || got > want*1.15 {
		t.Errorf("checkpoint sim measured %d instructions, region has %d", st.Instructions, reg.UnfilteredLen())
	}
	if st.Cycles <= 0 {
		t.Error("no cycles measured")
	}

	// The checkpoint path and the binary-driven path must broadly agree
	// on the region's runtime (both unconstrained, different warmup).
	sim2, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sim2.SimulateRegion(reg.Start, reg.End, WarmupFunctional)
	if err != nil {
		t.Fatal(err)
	}
	ratio := st.Cycles / st2.Cycles
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("checkpoint (%.0f cycles) and binary-driven (%.0f cycles) disagree by %.2fx",
			st.Cycles, st2.Cycles, ratio)
	}
}

func TestSimulateCheckpointNoWarmupRegion(t *testing.T) {
	// WarmupStartStep == StartStep: detail begins immediately.
	p := testprog.Phased(2, 8, 100, omp.Passive)
	pb, err := pinball.RecordWithOptions(p, 3, exec.RunOpts{FlowWindow: 256})
	if err != nil {
		t.Fatal(err)
	}
	db := dcfg.NewBuilder(p, 2)
	if _, err := pb.Replay(p, db); err != nil {
		t.Fatal(err)
	}
	g := db.Graph()
	var addrs []uint64
	for _, h := range g.StableMarkers(g.FindLoops(), 300) {
		addrs = append(addrs, h.Addr)
	}
	col := bbv.NewCollector(p, addrs, 2*1000)
	if _, err := pb.Replay(p, col); err != nil {
		t.Fatal(err)
	}
	prof := col.Finish()
	if len(prof.Regions) < 3 {
		t.Skip("not enough regions")
	}
	reg := prof.Regions[1]
	rps, err := pb.ExtractRegions(p, []pinball.RegionSpec{{
		Name:            "cold",
		WarmupStartStep: reg.StartICount,
		StartStep:       reg.StartICount,
		EndStep:         reg.EndICount,
		Start:           reg.Start,
		End:             reg.End,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rps[0].WarmupSteps != 0 {
		t.Fatalf("warmup steps = %d, want 0", rps[0].WarmupSteps)
	}
	sim, err := New(Gainestown(2), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.SimulateCheckpoint(rps[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions == 0 {
		t.Error("cold checkpoint measured nothing")
	}
}
