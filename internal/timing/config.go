// Package timing is the multicore performance model standing in for the
// Sniper simulator (paper Section IV-A): an execution-driven, cycle-level
// approximation of a Gainestown-like out-of-order multicore with the
// Table I memory hierarchy, a Pentium-M-style hybrid branch predictor,
// and an alternative in-order core model (Figure 5b). It supports
// unconstrained binary-driven simulation with (PC, count) region
// boundaries and perfect (functional) warmup, as well as constrained
// pinball-driven simulation that reproduces the recorded thread order —
// including the artificial stalls that make constrained timing unreliable
// (Section V-A1).
package timing

import "fmt"

// CoreKind selects the core model.
type CoreKind int

// Core models.
const (
	// OOO approximates a 4-wide out-of-order core: cache-miss latency is
	// partially hidden behind the reorder buffer and overlapping misses
	// (memory-level parallelism).
	OOO CoreKind = iota
	// InOrder is a 2-wide stall-on-use in-order core: every miss stalls
	// in full and misses do not overlap.
	InOrder
)

func (k CoreKind) String() string {
	if k == InOrder {
		return "inorder"
	}
	return "ooo"
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
	// Latency is the total load-to-use latency in cycles when the
	// access hits at this level.
	Latency uint64
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int {
	s := c.SizeBytes / (c.Assoc * c.LineBytes)
	if s < 1 {
		s = 1
	}
	return s
}

func (c CacheConfig) String() string {
	return fmt.Sprintf("%s %dK %d-way %dB lines, %d cycles",
		c.Name, c.SizeBytes/1024, c.Assoc, c.LineBytes, c.Latency)
}

// Config is the simulated system configuration.
type Config struct {
	Cores    int
	FreqGHz  float64
	Kind     CoreKind
	Dispatch int // issue width
	ROB      int

	L1I, L1D, L2, L3 CacheConfig
	MemLatency       uint64 // DRAM latency in cycles

	MispredictPenalty uint64
	// MLP is the number of overlapping misses the OOO core can sustain.
	MLP float64
	// Latency charges for special operations.
	DivCycles, SqrtCycles, AtomicCycles, PauseCycles uint64
	// FutexCycles models kernel entry/exit for futex wait/wake; WakeCycles
	// is the latency from wake to the sleeper resuming.
	FutexCycles, WakeCycles uint64
	// CoherenceCycles is charged when a write invalidates remote copies.
	CoherenceCycles uint64
	// PrefetchNextLines, when non-zero, enables a next-N-line hardware
	// prefetcher: each demand load that misses L1-D quietly fills the
	// following N lines. Table I's system has no prefetcher; this is an
	// extension used by the prefetcher ablation, which also checks that
	// looppoint selection remains valid when the microarchitecture
	// changes (the analysis never saw the prefetcher).
	PrefetchNextLines int
}

// Gainestown returns the paper's Table I configuration for n cores:
// 2.66 GHz Gainestown-like out-of-order cores with 128-entry ROBs,
// Pentium M branch prediction, 32 KB L1s, 256 KB L2, 8 MB shared L3.
func Gainestown(n int) Config {
	return Config{
		Cores:      n,
		FreqGHz:    2.66,
		Kind:       OOO,
		Dispatch:   4,
		ROB:        128,
		L1I:        CacheConfig{Name: "L1-I", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, Latency: 1},
		L1D:        CacheConfig{Name: "L1-D", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64, Latency: 4},
		L2:         CacheConfig{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineBytes: 64, Latency: 8},
		L3:         CacheConfig{Name: "L3", SizeBytes: 8 << 20, Assoc: 16, LineBytes: 64, Latency: 30},
		MemLatency: 120,

		MispredictPenalty: 15,
		MLP:               4,
		DivCycles:         9,
		SqrtCycles:        14,
		AtomicCycles:      16,
		PauseCycles:       4,
		// Futex and wake latencies are scaled to this repository's
		// slice regime (see workloads.Scale): real kernel wake paths
		// cost microseconds, which is negligible against the paper's
		// N x 100 M-instruction slices; keeping that *relative* cost at
		// our N x 100 K slices requires proportionally smaller values,
		// or synchronization noise would dominate region timing in a
		// way it never does at paper scale.
		FutexCycles:     120,
		WakeCycles:      180,
		CoherenceCycles: 40,
	}
}

// InOrderConfig returns the same system with in-order cores (Figure 5b's
// microarchitecture-portability experiment keeps everything else fixed).
func InOrderConfig(n int) Config {
	cfg := Gainestown(n)
	cfg.Kind = InOrder
	cfg.Dispatch = 2
	cfg.MispredictPenalty = 8
	cfg.MLP = 1
	return cfg
}

// MaxCores bounds Config.Cores: the coherence directory keeps a line's
// sharers as one uint64 bit per core (1 << core wraps silently beyond
// that), and the scheduler's run queue is a ring of this many threads.
const MaxCores = 64

// Validate checks the configuration for obvious mistakes.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("timing: need at least one core")
	}
	if c.Cores > MaxCores {
		return fmt.Errorf("timing: %d cores, at most %d are supported (a line's sharers are a 64-bit mask)", c.Cores, MaxCores)
	}
	if c.FreqGHz <= 0 {
		return fmt.Errorf("timing: frequency must be positive")
	}
	if c.Dispatch < 1 || c.ROB < c.Dispatch {
		return fmt.Errorf("timing: dispatch %d / ROB %d invalid", c.Dispatch, c.ROB)
	}
	if c.MLP < 1 {
		return fmt.Errorf("timing: MLP must be >= 1")
	}
	for _, cc := range []CacheConfig{c.L1I, c.L1D, c.L2, c.L3} {
		if cc.SizeBytes <= 0 || cc.Assoc <= 0 || cc.LineBytes <= 0 {
			return fmt.Errorf("timing: bad cache config %s", cc.Name)
		}
	}
	return nil
}
