package timing

import (
	"testing"

	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

// BenchmarkCacheAccess measures the hierarchy walk on a mixed hit/miss
// address stream.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := Gainestown(1)
	l3 := NewCache(cfg.L3, nil)
	l2 := NewCache(cfg.L2, l3)
	l1 := NewCache(cfg.L1D, l2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Access(uint64(i*89)&0xFFFFF, uint64(i))
	}
}

// BenchmarkBranchPredictor measures predictor update throughput.
func BenchmarkBranchPredictor(b *testing.B) {
	bp := NewBranchPredictor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.update(uint64(i&1023)<<2, i%7 != 0)
	}
}

// BenchmarkPerRegionFresh measures the per-region cost of a timing
// system built for every region (cache sets, line arrays, predictor
// tables, directory), as the pipeline paid before systems were pooled.
// The allocs/op column is the allocation wave the pool removes.
func BenchmarkPerRegionFresh(b *testing.B) {
	p := testprog.Phased(4, 2, 60, omp.Passive)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := freshSim(b, Gainestown(4), p).SimulateFull(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerRegionReused is the same per-region workload on pooled
// systems: every run after the first resets an idle one.
func BenchmarkPerRegionReused(b *testing.B) {
	p := testprog.Phased(4, 2, 60, omp.Passive)
	sim, err := New(Gainestown(4), p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.SimulateFull(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateFull(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetailedSimulation measures end-to-end detailed-simulation
// speed in simulated instructions per host second (the paper's baseline
// assumption is ~100 KIPS for industrial simulators; this approximate
// model runs far faster, which only rescales Figure 1's absolute axis).
func BenchmarkDetailedSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := testprog.Phased(4, 4, 300, omp.Passive)
		sim, err := New(Gainestown(4), p)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := sim.SimulateFull()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Instructions)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	}
}

// BenchmarkWarmupLockstep measures the warm-up loop where it is slowest:
// an 8-thread checkpoint whose warm-up prefix (the program from its start)
// dwarfs the measured region. Symmetric threads sit at equal cycle counts,
// so the min-cycle scheduler alternates after every instruction. Minstr/s
// counts the steps the pinball recorded, warm-up and region.
func BenchmarkWarmupLockstep(b *testing.B) {
	p := testprog.Phased(8, 12, 150, omp.Passive)
	pb, prof := recordedProfile(b, p, 8*1500)
	reg := prof.Regions[len(prof.Regions)-2]
	rps, err := pb.ExtractRegions(p, []pinball.RegionSpec{{
		Name:      "late",
		StartStep: reg.StartICount,
		EndStep:   reg.EndICount,
		Start:     reg.Start,
		End:       reg.End,
	}})
	if err != nil {
		b.Fatal(err)
	}
	steps, warm := rps[0].Schedule.Steps(), rps[0].WarmupSteps
	if warm < 4*(steps-warm) {
		b.Fatalf("warm-up does not dominate: %d of %d instructions", warm, steps)
	}
	sim, err := New(Gainestown(8), p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateCheckpoint(rps[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
