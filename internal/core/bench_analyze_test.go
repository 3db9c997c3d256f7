package core

import (
	"testing"

	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// make bench-analyze runs these; BENCH_analyze.json records which kind of
// host produced it. Each iteration is a whole Analyze — the recording run
// (which builds the DCFG) plus the BBV pass — because the graph's cost
// sits inside the recording and would vanish from a replay-only timing.
// The durable benchmark is the same pipeline with every iteration starting
// cold in a fresh directory, so it pays the recovery point: the pinball's
// and the graph's encode + fsync + rename.

func benchAnalyze(b *testing.B, durable bool) {
	b.Helper()
	p := testprog.Phased(4, 24, 400, omp.Passive)
	cfg := testConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if durable {
			b.StopTimer()
			cfg.ProgressDir, cfg.Progress = b.TempDir(), &ProgressStats{}
			b.StartTimer()
		}
		if _, err := Analyze(p, cfg); err != nil {
			b.Fatal(err)
		}
		if durable {
			if saves, fails, _, _, _ := cfg.Progress.Snapshot(); saves == 0 || fails != 0 {
				b.Fatalf("durable Analyze published no recovery point (saves=%d fails=%d)", saves, fails)
			}
		}
	}
}

func BenchmarkAnalyzeSerial(b *testing.B) { benchAnalyze(b, false) }

func BenchmarkAnalyzeDurable(b *testing.B) { benchAnalyze(b, true) }
