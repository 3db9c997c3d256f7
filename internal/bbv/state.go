package bbv

import (
	"fmt"

	"looppoint/internal/artifact"
	"looppoint/internal/isa"
)

// CollectorState is the serializable form of a Collector between two
// replay windows: the regions closed so far, the open one, and the global
// counters the close rule reads. Configuration (markers, slice target,
// modulus, filters, variable slicing) is not part of it — a resumed job
// re-derives that from the recording and applies it to the restored
// collector exactly as it does to a fresh one.
type CollectorState struct {
	Regions      []*Region
	Cur          *Region
	MarkerCounts map[uint64]uint64
	ICount       uint64
	Filtered     uint64
	SliceStart   uint64
}

// State captures the collector mid-run. It aliases the live regions and
// marker counts — serialize it before the next window feeds the collector.
func (c *Collector) State() *CollectorState {
	c.flush()
	return &CollectorState{
		Regions:      c.profile.Regions,
		Cur:          c.cur,
		MarkerCounts: c.markerCounts,
		ICount:       c.icount,
		Filtered:     c.filtered,
		SliceStart:   c.sliceStart,
	}
}

// RestoreCollector is NewCollector resumed at a saved state. The state
// comes off disk, so its shape and counters are checked against the
// program and each other first: any inconsistency is an error wrapping
// artifact.ErrCorrupt, never a panic later in the run.
func RestoreCollector(p *isa.Program, markerAddrs []uint64, sliceTarget uint64, st *CollectorState) (*Collector, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("bbv: collector state: %s: %w", fmt.Sprintf(format, args...), artifact.ErrCorrupt)
	}
	if st == nil || st.Cur == nil {
		return nil, corrupt("no open region")
	}
	nthreads := p.NumThreads()
	var closed uint64
	for i, r := range append(st.Regions[:len(st.Regions):len(st.Regions)], st.Cur) {
		if r == nil || r.Index != i {
			return nil, corrupt("region %d is missing or misnumbered", i)
		}
		if len(r.ThreadFiltered) != nthreads || len(r.Vectors) != nthreads {
			return nil, corrupt("region %d is not shaped for %d threads", i, nthreads)
		}
		for t, v := range r.Vectors {
			if v == nil {
				return nil, corrupt("region %d has no vector for thread %d", i, t)
			}
		}
		if i < len(st.Regions) {
			closed += r.Filtered
		}
	}
	// Every close sets sliceStart to the running filtered count, so the
	// closed regions sum to it and the open region holds the rest.
	if closed != st.SliceStart || st.SliceStart > st.Filtered || st.Filtered-st.SliceStart != st.Cur.Filtered {
		return nil, corrupt("filtered counters disagree (closed regions %d, slice start %d, open region %d, total %d)",
			closed, st.SliceStart, st.Cur.Filtered, st.Filtered)
	}
	if st.Filtered > st.ICount || st.Cur.StartICount > st.ICount {
		return nil, corrupt("instruction count %d behind filtered %d or open region start %d",
			st.ICount, st.Filtered, st.Cur.StartICount)
	}
	c := NewCollector(p, markerAddrs, sliceTarget)
	c.profile.Regions = st.Regions
	c.cur = st.Cur
	if st.MarkerCounts != nil {
		c.markerCounts = st.MarkerCounts
	}
	c.icount, c.filtered, c.sliceStart = st.ICount, st.Filtered, st.SliceStart
	return c, nil
}
