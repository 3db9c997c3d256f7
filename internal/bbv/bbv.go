// Package bbv collects Basic Block Vectors over an execution and slices
// it into variable-length regions demarcated by worker-loop entries
// (paper Sections III-A through III-C):
//
//   - the unit of work is the filtered (non-synchronization-library)
//     instruction count;
//   - a region ends at the first main-image loop-header entry after the
//     global filtered instruction count crosses N × SliceUnit for an
//     N-threaded program;
//   - region boundaries are (PC, count) pairs — the address of the marker
//     block and its global execution count — which remain valid even in
//     the presence of spin-loops;
//   - per-thread BBVs are kept separate so that clustering can see
//     run-time parallelism (Section III-B); they are concatenated into a
//     single global vector per region by the simpoint package.
package bbv

import (
	"fmt"
	"slices"
	"sort"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// Marker is a (PC, count) execution point: the count-th global entry of
// the basic block at address PC. The zero Marker denotes the program
// start; IsEnd marks the program end. A marker with PC == 0 and a
// non-zero Count is a raw global-instruction-count boundary — the kind
// the naive SimPoint baseline uses, which is not stable across thread
// interleavings (Section II).
type Marker struct {
	PC    uint64
	Count uint64
	IsEnd bool
}

// IsStart reports whether the marker denotes the program start.
func (m Marker) IsStart() bool { return m.PC == 0 && m.Count == 0 && !m.IsEnd }

// IsICount reports whether the marker is a raw instruction-count boundary.
func (m Marker) IsICount() bool { return m.PC == 0 && m.Count > 0 && !m.IsEnd }

func (m Marker) String() string {
	switch {
	case m.IsEnd:
		return "<end>"
	case m.IsStart():
		return "<start>"
	case m.IsICount():
		return fmt.Sprintf("@icount %d", m.Count)
	default:
		return fmt.Sprintf("(%#x, %d)", m.PC, m.Count)
	}
}

// Region is one profiling slice.
type Region struct {
	Index int
	Start Marker
	End   Marker
	// StartICount/EndICount are the global unfiltered retired counts at
	// the region boundaries.
	StartICount, EndICount uint64
	// Filtered is the global filtered (worker) instruction count in the
	// region — the amount of work it represents.
	Filtered uint64
	// ThreadFiltered is the per-thread filtered instruction split.
	ThreadFiltered []uint64
	// Vectors holds one sparse BBV per thread: global block index →
	// instructions retired in that block during this region.
	Vectors []map[int]float64
}

// UnfilteredLen returns the unfiltered instruction length of the region.
func (r *Region) UnfilteredLen() uint64 { return r.EndICount - r.StartICount }

// Profile is the outcome of one profiling run.
type Profile struct {
	Regions    []*Region
	NumThreads int
	NumBlocks  int // static block count (vector dimensionality per thread)
	// TotalFiltered and TotalICount cover the whole execution.
	TotalFiltered uint64
	TotalICount   uint64
	// MarkerCounts is the final global execution count per marker PC.
	MarkerCounts map[uint64]uint64
}

// ThreadShare returns, per region, each thread's share of the filtered
// instructions (Figure 3's per-slice series).
func (p *Profile) ThreadShare() [][]float64 {
	out := make([][]float64, len(p.Regions))
	for i, r := range p.Regions {
		shares := make([]float64, p.NumThreads)
		if r.Filtered > 0 {
			for t, f := range r.ThreadFiltered {
				shares[t] = float64(f) / float64(r.Filtered)
			}
		}
		out[i] = shares
	}
	return out
}

// Collector is an exec.BlockObserver that builds a Profile.
type Collector struct {
	sliceTarget uint64 // global filtered instructions per slice

	profile      *Profile
	markerCounts map[uint64]uint64
	cur          *Region
	icount       uint64 // global unfiltered
	filtered     uint64 // global filtered
	sliceStart   uint64 // filtered count at current region start
	finished     bool
	byICount     bool

	varMinFrac float64
	varThresh  float64
	varEnabled bool
	// prevNorm caches the last closed region's normalized global BBV,
	// derived on first use after every close.
	prevNorm map[int]float64

	// The block tier's hot path indexes by Block.Global and hashes
	// nothing. plain marks the blocks that are no marker (markers resolved
	// once), counted those whose instructions are work (the sync filter),
	// and pass holds each block's length. acc[tid*len(pass)+g] holds the
	// instructions accounted to the open region and not yet folded into
	// cur.Vectors[tid][g] by flush; touched[tid] lists those g with a
	// non-zero accumulator. Every reader of the open region's vectors and
	// filtered counts (closeRegion, phaseChanged, Finish) flushes first.
	plain   []bool
	counted []bool
	pass    []uint64
	acc     []float64
	touched [][]int

	// modulus restricts which hit counts of a marker may end a region:
	// only counts with (count-1) % modulus == 0 qualify. Symmetric
	// worker-loop headers (entered once per thread per episode) use
	// modulus == nthreads so boundaries land on episode leaders rather
	// than mid-burst; all other markers use modulus 1.
	modulus map[uint64]uint64
}

// SetMarkerModulus installs per-marker hit-count moduli (see the modulus
// field); markers without an entry behave as modulus 1.
func (c *Collector) SetMarkerModulus(m map[uint64]uint64) { c.modulus = m }

// boundaryAllowed reports whether the count-th hit of marker addr is a
// stable region boundary.
func (c *Collector) boundaryAllowed(addr, count uint64) bool {
	mod := c.modulus[addr]
	if mod <= 1 {
		return true
	}
	return (count-1)%mod == 0
}

// SetVariableSlices enables phase-aligned variable-length slicing (the
// alternative Section III-B points to, after Lau et al.'s variable-length
// intervals): a region may close early — at a worker-loop entry, once it
// holds at least minFrac of the slice budget — when its basic-block mix
// has diverged from the previous region by more than threshold
// (normalized Manhattan distance, range [0, 2]). The fixed budget still
// forces a close, so regions stay within the configured maximum size.
func (c *Collector) SetVariableSlices(minFrac, threshold float64) {
	if minFrac <= 0 || minFrac > 1 {
		minFrac = 0.25
	}
	if threshold <= 0 {
		threshold = 0.5
	}
	c.varEnabled = true
	c.varMinFrac = minFrac
	c.varThresh = threshold
}

// normalizedVector flattens a region's per-thread vectors into one
// normalized global map keyed by thread*nblocks+block.
func (c *Collector) normalizedVector(r *Region) map[int]float64 {
	out := make(map[int]float64)
	for t, tv := range r.Vectors {
		base := t * c.profile.NumBlocks
		for blk, w := range tv {
			out[base+blk] = w
		}
	}
	// Sum in key order: map-order float accumulation would make the
	// normalization (and every distance derived from it) vary by ULPs
	// between runs.
	var total float64
	for _, k := range sortedIndices(out) {
		total += out[k]
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}

// sortedIndices returns a sparse vector's indices in increasing order.
func sortedIndices(v map[int]float64) []int {
	keys := make([]int, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func manhattan(a, b map[int]float64) float64 {
	var d float64
	for _, k := range sortedIndices(a) {
		va, vb := a[k], b[k]
		if va > vb {
			d += va - vb
		} else {
			d += vb - va
		}
	}
	for _, k := range sortedIndices(b) {
		if _, ok := a[k]; !ok {
			d += b[k]
		}
	}
	return d
}

// phaseChanged reports whether the accumulating region's mix diverged
// from the previous region's.
func (c *Collector) phaseChanged() bool {
	n := len(c.profile.Regions)
	if n == 0 {
		return false
	}
	if c.prevNorm == nil {
		c.prevNorm = c.normalizedVector(c.profile.Regions[n-1])
	}
	c.flush()
	cur := c.normalizedVector(c.cur)
	return manhattan(cur, c.prevNorm) > c.varThresh
}

// DisableSyncFilter makes the collector count synchronization-library
// instructions as work (the naive-SimPoint baseline of Section II; the
// spin-filter ablation).
func (c *Collector) DisableSyncFilter() {
	for g := range c.counted {
		c.counted[g] = true
	}
}

// SliceOnICount switches slicing to raw global instruction counts (the
// naive SimPoint baseline): a region closes as soon as the unfiltered
// global count crosses the slice target, with no loop alignment.
func (c *Collector) SliceOnICount() { c.byICount = true }

// NewCollector creates a collector. markerAddrs are the candidate region
// boundary PCs (main-image loop headers from the DCFG pass); sliceTarget
// is the global filtered-instruction budget per slice (N × SliceUnit).
func NewCollector(p *isa.Program, markerAddrs []uint64, sliceTarget uint64) *Collector {
	if sliceTarget == 0 {
		panic("bbv: sliceTarget must be positive")
	}
	nb := p.NumBlocks()
	c := &Collector{
		plain:       make([]bool, nb),
		counted:     make([]bool, nb),
		pass:        make([]uint64, nb),
		sliceTarget: sliceTarget,
		profile: &Profile{
			NumThreads:   p.NumThreads(),
			NumBlocks:    p.NumBlocks(),
			MarkerCounts: make(map[uint64]uint64),
		},
		markerCounts: make(map[uint64]uint64),
		acc:          make([]float64, p.NumThreads()*nb),
		touched:      make([][]int, p.NumThreads()),
	}
	for g, blk := range p.Blocks() {
		c.plain[g] = !slices.Contains(markerAddrs, blk.Addr)
		c.counted[g] = !blk.Routine.Image.Sync
		c.pass[g] = uint64(len(blk.Instrs))
	}
	c.cur = c.newRegion(Marker{}, 0)
	return c
}

func (c *Collector) newRegion(start Marker, startIC uint64) *Region {
	r := &Region{
		Index:          len(c.profile.Regions),
		Start:          start,
		StartICount:    startIC,
		ThreadFiltered: make([]uint64, c.profile.NumThreads),
		Vectors:        make([]map[int]float64, c.profile.NumThreads),
	}
	for t := range r.Vectors {
		r.Vectors[t] = make(map[int]float64)
	}
	return r
}

// markerEntry handles one global entry of a marker block: bump its count
// and close the region if this entry is an admissible boundary.
func (c *Collector) markerEntry(addr uint64) {
	c.markerCounts[addr]++
	// When all N threads enter the same worker loop once per episode
	// (a timestep header after a barrier), the header fires in N-hit
	// bursts under natural scheduling, and a (PC, count) boundary
	// placed mid-burst is unstable: the work between two hits of one
	// burst depends entirely on thread interleaving, which differs
	// between the flow-controlled profiling replay and unconstrained
	// simulation. Symmetric markers therefore only admit episode-
	// leader counts (boundaryAllowed); a 2x budget overrun forces a
	// close anyway as a safety valve.
	allowed := c.boundaryAllowed(addr, c.markerCounts[addr])
	inRegion := c.filtered - c.sliceStart
	switch {
	case inRegion >= c.sliceTarget && (allowed || inRegion >= 2*c.sliceTarget):
		c.closeRegion(Marker{PC: addr, Count: c.markerCounts[addr]})
	case c.varEnabled && allowed && inRegion >= uint64(float64(c.varMinFrac*float64(c.sliceTarget))) && c.phaseChanged():
		c.closeRegion(Marker{PC: addr, Count: c.markerCounts[addr]})
	}
}

// account attributes n > 0 instructions of block g retired by thread tid
// to the current region's accumulator, which flush folds into its vector
// and filtered counts, applying the sync filter. A single float64 add is
// exact (and identical to n unit additions, in any order) for any region
// size below 2^53 instructions.
func (c *Collector) account(tid, g int, n uint64) {
	if !c.counted[g] {
		return
	}
	c.filtered += n
	k := tid*len(c.pass) + g
	if c.acc[k] == 0 {
		c.touched[tid] = append(c.touched[tid], g)
	}
	c.acc[k] += float64(n)
}

// flush folds the accumulators into the open region's vectors and its
// filtered counts.
func (c *Collector) flush() {
	for t, touched := range c.touched {
		acc, v := c.acc[t*len(c.pass):], c.cur.Vectors[t]
		var n float64
		for _, g := range touched {
			v[g] += acc[g]
			n += acc[g]
			acc[g] = 0
		}
		c.cur.ThreadFiltered[t] += uint64(n)
		c.cur.Filtered += uint64(n)
		c.touched[t] = touched[:0]
	}
}

// OnBlock implements exec.BlockObserver. It produces bit-identical
// profiles to per-instruction observation however the events were cut: an
// event that enters a marker block is split here, in OnInstr's order — the
// resumed partial pass, then for each entry its first instruction (the
// (PC, count) boundary, which may close the region) and the rest of that
// pass, the last possibly cut short. All other batches fold into the
// region wholesale.
func (c *Collector) OnBlock(ev *exec.BlockEvent) {
	if c.finished {
		return
	}
	if c.byICount {
		c.onBlockByICount(ev)
		return
	}
	tid, blk := ev.Tid, ev.Block
	g := blk.Global
	if ev.Entries == 0 || c.plain[g] {
		c.icount += ev.Instrs
		c.account(tid, g, ev.Instrs)
		return
	}
	pass, n := c.pass[g], ev.Instrs
	if ev.FirstIdx > 0 {
		lead := pass - uint64(ev.FirstIdx)
		c.icount += lead
		c.account(tid, g, lead)
		n -= lead
	}
	for e := ev.Entries; e > 0; e-- {
		k := min(pass, n) // this entry's pass, possibly cut short
		c.icount++
		c.markerEntry(blk.Addr)
		c.icount += k - 1
		c.account(tid, g, k)
		n -= k
	}
}

// ReadLog feeds the collector a recording's block log: a common record of
// a block that is no marker is accounted here; every other record (all of
// them when slicing on instruction counts) goes to OnBlock.
func (c *Collector) ReadLog(l *exec.BlockLog) {
	take := c.plain
	if c.byICount || c.finished {
		take = make([]bool, len(c.plain))
	}
	r := l.Reader()
	for {
		rec, tid := r.Records()
		icount := c.icount
		for {
			g, rest, ok := exec.CommonRecord(rec, take)
			if !ok {
				break
			}
			rec = rest
			icount += c.pass[g]
			c.account(tid, g, c.pass[g])
		}
		c.icount = icount
		ev := r.Next(rec)
		if ev == nil {
			return
		}
		c.OnBlock(ev)
	}
}

// onBlockByICount splits a batch across raw instruction-count boundaries,
// reproducing the per-instruction sequence: the instruction that crosses
// the slice target closes the region and is itself accounted to the new
// region (exactly as OnInstr orders close-then-account).
func (c *Collector) onBlockByICount(ev *exec.BlockEvent) {
	tid, g, n := ev.Tid, ev.Block.Global, ev.Instrs
	for n > 0 {
		untilClose := c.cur.StartICount + c.sliceTarget - c.icount
		if untilClose > n {
			c.icount += n
			c.account(tid, g, n)
			return
		}
		if pre := untilClose - 1; pre > 0 {
			c.icount += pre
			c.account(tid, g, pre)
			n -= pre
		}
		c.icount++
		c.closeRegion(Marker{Count: c.icount})
		c.account(tid, g, 1)
		n--
	}
}

func (c *Collector) closeRegion(end Marker) {
	c.flush()
	c.cur.End = end
	c.cur.EndICount = c.icount
	c.prevNorm = nil
	c.profile.Regions = append(c.profile.Regions, c.cur)
	c.cur = c.newRegion(end, c.icount)
	c.sliceStart = c.filtered
}

// Finish closes the trailing region and returns the profile. It must be
// called exactly once, after the run completes.
func (c *Collector) Finish() *Profile {
	if c.finished {
		return c.profile
	}
	c.finished = true
	c.flush()
	if c.cur.Filtered > 0 || len(c.profile.Regions) == 0 {
		c.closeRegion(Marker{IsEnd: true})
	}
	c.profile.TotalFiltered = c.filtered
	c.profile.TotalICount = c.icount
	for a, n := range c.markerCounts {
		c.profile.MarkerCounts[a] = n
	}
	return c.profile
}
