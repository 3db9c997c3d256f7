package bbv

import "looppoint/internal/exec"

// OnInstr is the per-instruction reference OnBlock is tested against. It
// takes one instruction as an event of one (StepBlock with a budget of
// one): ev.Block.Instrs[ev.FirstIdx], a block entry when ev.Entries is 1.
func (c *Collector) OnInstr(ev *exec.BlockEvent) {
	if c.finished {
		return
	}
	c.icount++
	blk := ev.Block
	if c.byICount {
		if c.icount-c.cur.StartICount >= c.sliceTarget {
			c.closeRegion(Marker{Count: c.icount})
		}
	} else if ev.Entries > 0 && c.markers[blk.Addr] {
		c.markerEntry(blk.Addr)
	}
	if blk.Routine.Image.Sync && !c.includeSync {
		return // synchronization code: execute but do not count (IV-F)
	}
	c.filtered++
	c.cur.Filtered++
	c.cur.ThreadFiltered[ev.Tid]++
	c.cur.Vectors[ev.Tid][blk.Global]++
}
