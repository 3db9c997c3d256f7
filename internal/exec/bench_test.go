package exec

import (
	"testing"

	"looppoint/internal/omp"
)

// BenchmarkInterpreter measures the functional interpreter's throughput
// (instructions per second drive every analysis pass and fast-forward).
func BenchmarkInterpreter(b *testing.B) {
	p, _ := buildCounterProgram(b, 4, 1_000_000_000, omp.Passive)
	m := NewMachine(p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tid := 0; tid < 4; tid++ {
			m.Step(tid)
		}
	}
	b.ReportMetric(float64(m.TotalICount())/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkInterpreterBlockObserver measures the block-batched fast
// path with a block observer attached — the configuration BBV profiling
// runs in.
func BenchmarkInterpreterBlockObserver(b *testing.B) {
	p, _ := buildCounterProgram(b, 4, 1_000_000_000, omp.Passive)
	m := NewMachine(p, 1)
	var blocks uint64
	m.AddBlockObserver(BlockObserverFunc(func(ev *BlockEvent) {
		blocks += ev.Entries
	}))
	var ev BlockEvent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tid := 0; tid < 4; tid++ {
			if m.StepBlock(tid, 64, &ev) {
				for _, o := range m.blockObservers {
					o.OnBlock(&ev)
				}
			}
		}
	}
	b.ReportMetric(float64(m.TotalICount())/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkInterpreterBlockDispatch measures raw block-batched retire
// throughput with no observers at all (the pinball record / replay
// configuration).
func BenchmarkInterpreterBlockDispatch(b *testing.B) {
	p, _ := buildCounterProgram(b, 4, 1_000_000_000, omp.Passive)
	m := NewMachine(p, 1)
	var ev BlockEvent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tid := 0; tid < 4; tid++ {
			m.StepBlock(tid, 64, &ev)
		}
	}
	b.ReportMetric(float64(m.TotalICount())/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSnapshot measures checkpoint capture cost (region extraction
// takes one per looppoint).
func BenchmarkSnapshot(b *testing.B) {
	p, _ := buildCounterProgram(b, 8, 100, omp.Passive)
	m := NewMachine(p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := m.Snapshot(); s == nil {
			b.Fatal("nil snapshot")
		}
	}
}
