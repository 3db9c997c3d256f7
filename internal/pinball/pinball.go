// Package pinball implements user-level checkpoints for reproducible
// analysis, modeled on PinPlay pinballs (paper Sections III-H and IV-C).
//
// A pinball bundles everything needed to re-execute a program region
// deterministically without the original binary inputs:
//
//   - a memory/register snapshot at the region start (the .text/.reg files);
//   - the per-thread syscall side-effect injection log (the .sel files);
//   - the recorded thread interleaving (our equivalent of the .race
//     shared-memory dependency files): replaying the same interleaving
//     with the same injections reproduces shared-memory access order.
//
// Constrained replay follows the recorded interleaving exactly — which is
// what makes analysis reproducible, and also what introduces the
// artificial thread stalls that make constrained *timing* simulation
// unreliable (Section V-A1).
package pinball

import (
	"fmt"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// Pinball is a recorded, replayable execution region.
type Pinball struct {
	Name       string
	NumThreads int
	// Start is the architectural state at the beginning of the region.
	Start *exec.Snapshot
	// Syscalls is the per-thread injection log covering the region.
	Syscalls [][]int64
	// Schedule is the recorded thread interleaving covering the region.
	Schedule exec.Schedule
	// Region identifies the covered region; whole-program pinballs span
	// <start>..<end>.
	Region RegionBounds
	// WarmupSteps is the number of leading schedule steps that belong to
	// the warmup prefix rather than the region of interest; a constrained
	// simulation warms microarchitectural state over them and measures
	// only the remainder.
	WarmupSteps uint64
	// StartHitsAtSnapshot and EndHitsAtSnapshot rebase the region's
	// global (PC, count) markers for simulations that begin at the
	// snapshot instead of the program start (ELFie-style unconstrained
	// checkpoint simulation).
	StartHitsAtSnapshot uint64
	EndHitsAtSnapshot   uint64
	// MemChecksum guards the snapshot against corruption.
	MemChecksum uint64
	// FinalChecksum is the memory checksum after a faithful replay.
	FinalChecksum uint64
}

// RegionBounds names the pinball's extent in (PC, count) markers.
type RegionBounds struct {
	Start, End bbv.Marker
	// WarmupStart, when different from Start, marks where the snapshot
	// was taken so that the simulated region carries warmup prefix
	// instructions before the region of interest begins.
	WarmupStart bbv.Marker
}

// fnv1a hashes a word slice as its little-endian byte serialization.
// The implementation lives in artifact so the snapshot checksums here,
// the whole-file integrity hash, and every other artifact checksum in
// the repository share one FNV-1a source of truth.
func fnv1a(words []uint64) uint64 { return artifact.ChecksumWords(words) }

// Record executes the whole program from its initial state, recording a
// whole-program pinball. seed seeds the OS model (the source of
// non-determinism being captured). flowWindow, when non-zero, applies the
// flow-control scheduler during recording so the captured trace is not
// skewed by scheduler imbalance (Section III-B).
func Record(p *isa.Program, seed uint64, flowWindow uint64) (*Pinball, error) {
	return RecordWithOptions(p, seed, exec.RunOpts{FlowWindow: flowWindow})
}

// RecordWithOptions is Record with full scheduler control — most notably
// exec.RunOpts.QuantumBias, which emulates host imbalance during the
// recording so the flow-control ablation can show what the paper's
// equal-progress mechanism protects against. Block observers ride the
// recording run itself — the logged run is the one pass that executes at
// full speed, so analysis that needs only block events (the DCFG builder)
// is built there instead of in a replay. Observers never perturb the
// recording: batching changes how retirements group into events, not
// what retires when, so the pinball is byte-identical with or without
// them.
func RecordWithOptions(p *isa.Program, seed uint64, opts exec.RunOpts, observers ...exec.BlockObserver) (*Pinball, error) {
	m := exec.NewMachine(p, seed)
	rec := exec.NewRecordingOS(m.OS, p.NumThreads())
	m.OS = rec
	for _, o := range observers {
		m.AddBlockObserver(o)
	}
	start := m.Snapshot()
	var sched exec.Schedule
	opts.Record = &sched
	if err := m.Run(opts); err != nil {
		return nil, fmt.Errorf("pinball: record: %w", err)
	}
	pb := &Pinball{
		Name:       p.Name,
		NumThreads: p.NumThreads(),
		Start:      start,
		Syscalls:   rec.Log,
		Schedule:   sched,
		Region: RegionBounds{
			Start: bbv.Marker{}, End: bbv.Marker{IsEnd: true},
			WarmupStart: bbv.Marker{},
		},
	}
	pb.MemChecksum = fnv1a(start.Mem)
	pb.FinalChecksum = fnv1a(m.Mem)
	return pb, nil
}

// Verify checks the snapshot checksum. A mismatch wraps
// artifact.ErrCorrupt.
func (pb *Pinball) Verify() error {
	if got := fnv1a(pb.Start.Mem); got != pb.MemChecksum {
		return fmt.Errorf("pinball %s: snapshot checksum mismatch (got %#x, want %#x): %w",
			pb.Name, got, pb.MemChecksum, artifact.ErrCorrupt)
	}
	return nil
}

// Replay performs a constrained replay of the pinball on a fresh machine
// for the same program, with the given block observers attached; they see
// coalesced events, cut only by the schedule, control flow, futexes and
// halts. The returned machine holds the final state.
// Replay verifies the snapshot checksum before starting and the final
// memory checksum afterwards.
func (pb *Pinball) Replay(p *isa.Program, observers ...exec.BlockObserver) (*exec.Machine, error) {
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	m, replay, err := pb.startMachine(p)
	if err != nil {
		return nil, err
	}
	for _, o := range observers {
		m.AddBlockObserver(o)
	}
	if err := m.RunSchedule(pb.Schedule); err != nil {
		return nil, fmt.Errorf("pinball %s: %w", pb.Name, err)
	}
	return pb.finish(m, replay)
}

// StepReplay is Replay one instruction at a time: it retires the recorded
// schedule through exec.Machine.Step, hands every event to fn, and makes
// the same checks. It serves the per-instruction consumers — the trace
// writer behind lpsim -dump-trace and the OnInstr reference oracles the
// block tier is tested against.
func (pb *Pinball) StepReplay(p *isa.Program, fn func(*exec.Event)) (_ *exec.Machine, err error) {
	defer exec.Recover(&err)
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	m, replay, err := pb.startMachine(p)
	if err != nil {
		return nil, err
	}
	for _, e := range pb.Schedule {
		for i := uint32(0); i < e.N; i++ {
			ev, ok := m.Step(e.Tid)
			if !ok {
				return nil, fmt.Errorf("pinball %s: %w: thread %d is %s", pb.Name,
					exec.ErrScheduleDiverged, e.Tid, m.Threads[e.Tid].State)
			}
			fn(ev)
		}
	}
	return pb.finish(m, replay)
}

// finish returns the replayed machine, or an error if the replay ran out
// of injected syscall results or ended on memory other than the
// recording's.
func (pb *Pinball) finish(m *exec.Machine, replay *exec.ReplayOS) (*exec.Machine, error) {
	if replay.Diverged {
		return nil, fmt.Errorf("pinball %s: syscall injection log exhausted (replay diverged)", pb.Name)
	}
	if pb.FinalChecksum != 0 {
		if got := fnv1a(m.Mem); got != pb.FinalChecksum {
			return nil, fmt.Errorf("pinball %s: final state checksum mismatch (got %#x, want %#x)",
				pb.Name, got, pb.FinalChecksum)
		}
	}
	return m, nil
}

// startMachine returns a fresh machine standing at the start of the
// recording, with a replay OS injecting the recorded syscall results from
// the top. The snapshot is restored before the replay OS is installed: it
// carries recording-time DefaultOS state, which must not be poured into the
// replay OS's injection cursors.
func (pb *Pinball) startMachine(p *isa.Program) (*exec.Machine, *exec.ReplayOS, error) {
	m := exec.NewMachine(p, 0)
	if err := m.Restore(pb.Start); err != nil {
		return nil, nil, fmt.Errorf("pinball %s: %w", pb.Name, err)
	}
	replay := exec.NewReplayOS(pb.Syscalls)
	m.OS = replay
	return m, replay, nil
}

// syscallsFrom copies each thread's injection log from its cursor on.
func syscallsFrom(log [][]int64, from []int) [][]int64 {
	out := make([][]int64, len(log))
	for t := range log {
		out[t] = append([]int64(nil), log[t][from[t]:]...)
	}
	return out
}
