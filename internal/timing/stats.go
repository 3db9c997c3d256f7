package timing

import "fmt"

// CPIStack decomposes cycles into the components Sniper popularized:
// where did the time go — issue-width-limited base execution, instruction
// fetch, data memory stalls, branch mispredictions, long-latency compute,
// or synchronization (atomics, futex, spinning hints).
type CPIStack struct {
	Base    float64
	Ifetch  float64
	Memory  float64
	Branch  float64
	Compute float64
	Sync    float64
}

// Total returns the summed components.
func (c CPIStack) Total() float64 {
	return c.Base + c.Ifetch + c.Memory + c.Branch + c.Compute + c.Sync
}

// Add accumulates another stack.
func (c *CPIStack) Add(o CPIStack) {
	c.Base += o.Base
	c.Ifetch += o.Ifetch
	c.Memory += o.Memory
	c.Branch += o.Branch
	c.Compute += o.Compute
	c.Sync += o.Sync
}

// Stats aggregates the performance counters of one (detailed) simulation.
type Stats struct {
	Config Config
	// Cycles is the simulated wall-clock length of the detailed portion
	// (maximum over cores).
	Cycles float64
	// Instructions retired during detail, total and per core.
	Instructions uint64
	CoreInstr    []uint64
	// FilteredInstructions excludes synchronization-library code — the
	// unit-of-work denominator used by extrapolation.
	FilteredInstructions uint64

	Branches     uint64
	BranchMisses uint64

	L1IAccesses, L1IMisses uint64
	L1DAccesses, L1DMisses uint64
	L2Accesses, L2Misses   uint64
	L3Accesses, L3Misses   uint64

	CoherenceInvalidations uint64
	FutexWaits             uint64

	// Stack is the aggregate cycle decomposition across cores. Its total
	// is the summed per-core busy cycles (it exceeds wall-clock Cycles,
	// which is the max over cores).
	Stack CPIStack
}

// RuntimeSeconds converts cycles to simulated seconds.
func (s *Stats) RuntimeSeconds() float64 {
	return s.Cycles / (s.Config.FreqGHz * 1e9)
}

// IPC returns aggregate instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / s.Cycles
}

// BranchMPKI returns branch mispredictions per kilo-instruction.
func (s *Stats) BranchMPKI() float64 { return mpki(s.BranchMisses, s.Instructions) }

// L1DMPKI returns L1-D misses per kilo-instruction.
func (s *Stats) L1DMPKI() float64 { return mpki(s.L1DMisses, s.Instructions) }

// L2MPKI returns L2 misses per kilo-instruction.
func (s *Stats) L2MPKI() float64 { return mpki(s.L2Misses, s.Instructions) }

// L3MPKI returns L3 misses per kilo-instruction.
func (s *Stats) L3MPKI() float64 { return mpki(s.L3Misses, s.Instructions) }

func mpki(misses, instrs uint64) float64 {
	if instrs == 0 {
		return 0
	}
	return float64(misses) / float64(instrs) * 1000
}

func (s *Stats) String() string {
	return fmt.Sprintf("cycles=%.0f instrs=%d ipc=%.3f brMPKI=%.2f l2MPKI=%.2f l3MPKI=%.2f",
		s.Cycles, s.Instructions, s.IPC(), s.BranchMPKI(), s.L2MPKI(), s.L3MPKI())
}

// IPCSample is one point of an IPC-over-time trace (Figure 4).
type IPCSample struct {
	Instructions uint64
	Cycles       float64
	IPC          float64
}

// IPCTrace samples aggregate IPC every Interval retired instructions.
type IPCTrace struct {
	Interval uint64
	Samples  []IPCSample

	lastInstr uint64
	lastCycle float64
}

// NewIPCTrace creates a trace sampling every interval instructions.
func NewIPCTrace(interval uint64) *IPCTrace {
	if interval == 0 {
		interval = 100000
	}
	return &IPCTrace{Interval: interval}
}

func (t *IPCTrace) maybeSample(instrs uint64, cycles float64) {
	if instrs-t.lastInstr < t.Interval {
		return
	}
	di, dc := instrs-t.lastInstr, cycles-t.lastCycle
	ipc := 0.0
	if dc > 0 {
		ipc = float64(di) / dc
	}
	t.Samples = append(t.Samples, IPCSample{Instructions: instrs, Cycles: cycles, IPC: ipc})
	t.lastInstr, t.lastCycle = instrs, cycles
}
