package pool

import (
	"context"
	"testing"
)

// spinWork is a small CPU-bound kernel: enough work per item that the
// pool's scheduling overhead is amortized, little enough that a
// -benchtime 1x smoke run stays fast.
func spinWork(seed uint64) uint64 {
	h := seed + 0x9e3779b97f4a7c15
	for i := 0; i < 20_000; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
	}
	return h
}

// BenchmarkMapFanOut measures the pool's fan-out throughput on
// CPU-bound items at the width implied by GOMAXPROCS — run it with
// -cpu 1,2,4,8 to get the multi-core scaling curve (items are
// independent, so throughput should scale with real cores and flatten
// once widths oversubscribe the host).
func BenchmarkMapFanOut(b *testing.B) {
	const items = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Map(context.Background(), 0, items,
			func(_ context.Context, i int) (uint64, error) {
				return spinWork(uint64(i)), nil
			})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != items {
			b.Fatal("short result")
		}
	}
}

// BenchmarkMapSerial is the same workload forced to width 1 — the
// denominator for the scaling curve regardless of -cpu.
func BenchmarkMapSerial(b *testing.B) {
	const items = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Map(context.Background(), 1, items,
			func(_ context.Context, i int) (uint64, error) {
				return spinWork(uint64(i)), nil
			})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != items {
			b.Fatal("short result")
		}
	}
}
