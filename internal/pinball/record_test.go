package pinball

import (
	"fmt"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// Record is RecordWithOptions with a flow window alone, the recording most
// of the package's tests make.
func Record(p *isa.Program, seed uint64, flowWindow uint64) (*Pinball, error) {
	return RecordWithOptions(p, seed, exec.RunOpts{FlowWindow: flowWindow})
}

// stepReplay is Replay one instruction at a time: it retires the recorded
// schedule through StepBlock with a budget of one, hands every
// one-instruction event to fn, and makes Replay's checks. It feeds the
// per-instruction references the block tier is tested against.
func (pb *Pinball) stepReplay(p *isa.Program, fn func(*exec.BlockEvent)) (_ *exec.Machine, err error) {
	defer exec.Recover(&err)
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	m, replay, err := pb.startMachine(p)
	if err != nil {
		return nil, err
	}
	var ev exec.BlockEvent
	for _, e := range pb.Schedule {
		for i := uint32(0); i < e.N; i++ {
			if !m.StepBlock(e.Tid, 1, &ev) {
				return nil, fmt.Errorf("pinball %s: %w: thread %d is %s", pb.Name,
					exec.ErrScheduleDiverged, e.Tid, m.Threads[e.Tid].State)
			}
			fn(&ev)
		}
	}
	return pb.finish(m, replay)
}
