package core

import (
	"runtime"
	"testing"

	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// make bench-analyze runs these with -cpu 1,2,4,8: the parallel
// benchmark sets AnalyzeWorkers to GOMAXPROCS, so the -cpu axis is the
// worker-count axis; BENCH_analyze.json records which kind of host
// produced it. Each iteration is a whole Analyze — the recording run
// (which builds the DCFG) plus the BBV pass — because the graph's cost
// now sits inside the recording and would vanish from a replay-only
// timing. The internal entry points are called directly so the parallel
// path's serial fallback can never stand in for it.

func benchAnalyze(b *testing.B, workers int, analyze func(*isa.Program, Config) (*Analysis, error)) {
	b.Helper()
	p := testprog.Phased(4, 24, 400, omp.Passive)
	cfg := testConfig()
	cfg.fill()
	cfg.AnalyzeWorkers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyze(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeSerial(b *testing.B) {
	benchAnalyze(b, 0, func(p *isa.Program, cfg Config) (*Analysis, error) {
		pb, g, err := recordWithGraph(p, &cfg)
		if err != nil {
			return nil, err
		}
		return analyzeSerial(p, cfg, pb, g)
	})
}

func BenchmarkAnalyzeParallel(b *testing.B) {
	benchAnalyze(b, runtime.GOMAXPROCS(0), func(p *isa.Program, cfg Config) (*Analysis, error) {
		pb, g, err := recordWithGraph(p, &cfg)
		if err != nil {
			return nil, err
		}
		return analyzeParallel(p, cfg, pb, g)
	})
}
