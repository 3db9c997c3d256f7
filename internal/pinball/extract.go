package pinball

import (
	"fmt"
	"sort"

	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// RegionSpec names a region to extract from a whole-program pinball by
// its global step offsets in the recorded schedule (known exactly from
// the BBV profile collected on the same replay) plus the (PC, count)
// markers that delimit it for unconstrained simulation.
type RegionSpec struct {
	Name string
	// Step offsets into the recorded execution (0 = first instruction).
	WarmupStartStep uint64 // where the snapshot is taken
	StartStep       uint64 // where the region of interest begins
	EndStep         uint64 // where it ends
	// Markers for locating the region under a different interleaving.
	Start, End bbv.Marker
}

// ExtractRegions slices a whole-program pinball into region pinballs in a
// single replay pass: the machine replays the recorded schedule once and
// a snapshot is taken at each requested warmup-start offset. This is how
// all of an application's looppoint checkpoints are generated with one
// sweep over the recording (the paper's region-pinball generation).
// Machine faults raised mid-replay surface as errors wrapping
// exec.ErrMachine, like the exec.Run family.
func (pb *Pinball) ExtractRegions(p *isa.Program, specs []RegionSpec) (_ []*Pinball, err error) {
	defer exec.Recover(&err)
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, nil
	}
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return specs[order[a]].WarmupStartStep < specs[order[b]].WarmupStartStep
	})
	for _, i := range order {
		s := specs[i]
		if s.WarmupStartStep > s.StartStep || s.StartStep >= s.EndStep {
			return nil, fmt.Errorf("pinball: region %s has invalid steps (%d, %d, %d)",
				s.Name, s.WarmupStartStep, s.StartStep, s.EndStep)
		}
	}

	m, replay := pb.startMachine(p)

	// Track global hit counts of every marker PC of interest. They are
	// accumulated from the block events' entry counts — exact, because
	// batch budgets are capped at the next snapshot offset, so no batch
	// ever spans a capture point.
	hits := make(map[uint64]uint64)
	for _, s := range specs {
		if !s.Start.IsStart() && !s.Start.IsICount() {
			hits[s.Start.PC] = 0
		}
		if !s.End.IsEnd && !s.End.IsICount() {
			hits[s.End.PC] = 0
		}
	}

	out := make([]*Pinball, len(specs))
	next := 0 // index into order
	var steps uint64

	capture := func() {
		for next < len(order) && specs[order[next]].WarmupStartStep == steps {
			i := order[next]
			s := specs[i]
			snap := m.Snapshot()
			rp := &Pinball{
				Name:                s.Name,
				NumThreads:          pb.NumThreads,
				Start:               snap,
				Region:              RegionBounds{Start: s.Start, End: s.End, WarmupStart: s.Start},
				WarmupSteps:         s.StartStep - s.WarmupStartStep,
				StartHitsAtSnapshot: markerHits(hits, s.Start),
				EndHitsAtSnapshot:   markerHits(hits, s.End),
			}
			rp.Syscalls = syscallsFrom(pb.Syscalls, replay.Positions())
			rp.Schedule = pb.Schedule.Window(steps, s.EndStep-s.WarmupStartStep)
			rp.MemChecksum = fnv1a(snap.Mem)
			out[i] = rp
			next++
		}
	}

	capture() // regions starting at step 0
	var bev exec.BlockEvent
	for _, e := range pb.Schedule {
		rem := uint64(e.N)
		for rem > 0 && next < len(order) {
			// Cap the batch at the next snapshot offset so captures land
			// on exact step counts.
			b := rem
			if nc := specs[order[next]].WarmupStartStep - steps; nc < b {
				b = nc
			}
			if !m.StepBlock(e.Tid, b, &bev) {
				return nil, fmt.Errorf("pinball: extraction replay diverged at step %d", steps)
			}
			if _, ok := hits[bev.Block.Addr]; ok {
				hits[bev.Block.Addr] += bev.Entries
			}
			steps += bev.Instrs
			rem -= bev.Instrs
			capture()
		}
		if next >= len(order) {
			break
		}
	}
	if next < len(order) {
		return nil, fmt.Errorf("pinball: %d region snapshots not reached (recording has %d steps)",
			len(order)-next, pb.Schedule.Steps())
	}
	// Each region's syscall log is its own copy running from the
	// snapshot's cursors to the end of the recording (the sweep stops at
	// the last snapshot, before any region's end cursors are known). The
	// tail is harmless for replay, and saved region pinballs carry it.
	return out, nil
}

func markerHits(hits map[uint64]uint64, mk bbv.Marker) uint64 {
	if mk.IsStart() || mk.IsEnd || mk.IsICount() {
		return 0
	}
	return hits[mk.PC]
}
