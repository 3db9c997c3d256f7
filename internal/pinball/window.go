package pinball

import (
	"fmt"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// A Checkpoint positions a replay at an exact step offset inside a
// recording: the architectural snapshot at that step plus the per-thread
// syscall-injection cursors the replay OS had consumed to reach it. The
// schedule cursor is the step offset itself — Schedule.Skip(Step) is the
// remainder of the interleaving. Together these are the whole carry a
// windowed replay needs; everything else an observer accumulates is
// observer state, which the observer carries across windows itself
// (bbv.Collector.State).
//
// Checkpoint boundaries are deterministic because they are defined in
// retired-instruction step counts over the *recorded* schedule: the same
// pinball yields the same snapshots regardless of host parallelism,
// batch splits, or observer tiers (batching never changes what retires
// at which step, only how retirements are grouped into events).
type Checkpoint struct {
	// Snap is the machine state at Step.
	Snap *exec.Snapshot
	// SysPos is the per-thread syscall log cursor at Step.
	SysPos []int
	// Step is the offset into the recorded schedule, in instructions.
	Step uint64
}

// StartCheckpoint is the checkpoint at step 0: the pinball's own start
// snapshot with untouched syscall cursors.
func (pb *Pinball) StartCheckpoint() Checkpoint {
	return Checkpoint{Snap: pb.Start, SysPos: make([]int, len(pb.Syscalls)), Step: 0}
}

// ReplayFrom prepares a fresh machine positioned at the checkpoint: the
// snapshot restored and a replay OS whose injection cursors resume where
// the checkpointed run left off. Callers attach observers and drive the
// machine over (a window of) Schedule.Skip(from.Step). This is the one
// primitive every partial replay in the package routes through — the
// region extraction sweep and the analysis windows — so mid-run
// positioning semantics live in exactly one place.
func (pb *Pinball) ReplayFrom(p *isa.Program, from Checkpoint) (*exec.Machine, *exec.ReplayOS) {
	m := exec.NewMachine(p, 0)
	// Restore before installing the replay OS: a start checkpoint's
	// snapshot carries recording-time DefaultOS state, which must not be
	// poured into syscall cursors. The cursors come from SysPos, the
	// checkpoint's own authoritative copy.
	m.Restore(from.Snap)
	replay := exec.NewReplayOSAt(pb.Syscalls, from.SysPos)
	m.OS = replay
	return m, replay
}

// ReplayWindow replays exactly `steps` instructions of the recorded
// schedule starting at the checkpoint, with the observers attached as in
// Replay (block observers on the fast tier, others per-instruction), and
// returns the checkpoint at the window's end — the carry the next window
// resumes from, so windows chain. steps past the end of the recording
// replays to the end, and a window that ends the recording verifies the
// final memory checksum like Replay does.
func (pb *Pinball) ReplayWindow(p *isa.Program, from Checkpoint, steps uint64, observers ...exec.Observer) (Checkpoint, error) {
	if err := pb.Verify(); err != nil {
		return Checkpoint{}, err
	}
	m, replay := pb.ReplayFrom(p, from)
	for _, o := range observers {
		if bo, ok := o.(exec.BlockObserver); ok {
			m.AddBlockObserver(bo)
		} else {
			m.AddObserver(o)
		}
	}
	// A window spanning the recording — the stateless analysis — runs
	// the schedule in place; only a proper cut pays for a copy.
	total, window := pb.Schedule.Steps(), pb.Schedule
	if from.Step > 0 || steps < total {
		window = window.Window(from.Step, steps)
	}
	if err := m.RunSchedule(window); err != nil {
		return Checkpoint{}, fmt.Errorf("pinball %s: window at step %d: %w", pb.Name, from.Step, err)
	}
	if replay.Diverged {
		return Checkpoint{}, fmt.Errorf("pinball %s: syscall injection log exhausted in window at step %d", pb.Name, from.Step)
	}
	end := total
	if from.Step <= total && steps < total-from.Step {
		end = from.Step + steps
	}
	if end == total {
		if err := pb.verifyFinal(m); err != nil {
			return Checkpoint{}, err
		}
	}
	return Checkpoint{Snap: m.Snapshot(), SysPos: replay.Positions(), Step: end}, nil
}
