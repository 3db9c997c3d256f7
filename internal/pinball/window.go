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
// observer state, handled by the shard merge rules (bbv
// scanner/accumulator).
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

// Checkpoints replays the recording once on the fast block tier with no
// observers and captures a checkpoint at every multiple of `every` steps
// (strictly inside the run), plus the start checkpoint at index 0. The
// sweep stops after the last boundary — the tail is the final shard's to
// replay. every == 0 yields just the start checkpoint (one shard:
// degenerates to a serial replay).
func (pb *Pinball) Checkpoints(p *isa.Program, every uint64) (_ []Checkpoint, err error) {
	defer exec.Recover(&err)
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	cks := []Checkpoint{pb.StartCheckpoint()}
	total := pb.Schedule.Steps()
	if every == 0 || every >= total {
		return cks, nil
	}

	m, replay := pb.ReplayFrom(p, pb.StartCheckpoint())

	var steps uint64
	boundary := every
	var bev exec.BlockEvent
sweep:
	for _, e := range pb.Schedule {
		rem := uint64(e.N)
		for rem > 0 {
			// Cap the batch at the next boundary so captures land on exact
			// step counts (same mechanism as ExtractRegions).
			b := rem
			if nc := boundary - steps; nc < b {
				b = nc
			}
			if !m.StepBlock(e.Tid, b, &bev) {
				return nil, fmt.Errorf("pinball %s: checkpoint sweep diverged at step %d", pb.Name, steps)
			}
			steps += bev.Instrs
			rem -= bev.Instrs
			if steps == boundary {
				cks = append(cks, Checkpoint{Snap: m.Snapshot(), SysPos: replay.Positions(), Step: steps})
				boundary += every
				if boundary >= total {
					break sweep
				}
			}
		}
	}
	if replay.Diverged {
		return nil, fmt.Errorf("pinball %s: syscall log exhausted during checkpoint sweep", pb.Name)
	}
	return cks, nil
}

// ReplayFrom prepares a fresh machine positioned at the checkpoint: the
// snapshot restored and a replay OS whose injection cursors resume where
// the checkpointed run left off. Callers attach observers and drive the
// machine over (a window of) Schedule.Skip(from.Step). This is the one
// primitive every partial replay in the package routes through —
// RecordRegion's continuation, the checkpoint sweep consumers, and the
// parallel analysis shards — so mid-run positioning semantics live in
// exactly one place.
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
// returns the machine at the window's end. steps past the end of the
// recording replays to the end. No final-checksum verification is done —
// the window is a partial replay.
func (pb *Pinball) ReplayWindow(p *isa.Program, from Checkpoint, steps uint64, observers ...exec.Observer) (*exec.Machine, error) {
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	m, replay := pb.ReplayFrom(p, from)
	for _, o := range observers {
		if bo, ok := o.(exec.BlockObserver); ok {
			m.AddBlockObserver(bo)
		} else {
			m.AddObserver(o)
		}
	}
	if err := m.RunSchedule(pb.Schedule.Window(from.Step, steps)); err != nil {
		return nil, fmt.Errorf("pinball %s: window at step %d: %w", pb.Name, from.Step, err)
	}
	if replay.Diverged {
		return nil, fmt.Errorf("pinball %s: syscall injection log exhausted in window at step %d", pb.Name, from.Step)
	}
	return m, nil
}
