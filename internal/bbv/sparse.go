package bbv

import "sort"

// SparseEntry is one (index, weight) element of a materialized sparse
// BBV. Entries come from the per-thread map vectors; materializing them
// once into a sorted slice lets the projection stage run sparse dot
// products instead of re-sorting map keys on every use.
type SparseEntry struct {
	Index  int
	Weight float64
}

// SparseVector materializes the region's concatenated global BBV as a
// sorted (index, weight) slice: thread t's block b appears at index
// t*nblocks + b, exactly the row layout simpoint.ProjectRegionsN projects
// (Section III-B's per-thread concatenation). Because threads are visited
// in order and each thread's block indices are below nblocks, the
// concatenation is globally sorted by construction; entries are unique.
// The traversal order — and therefore any floating-point accumulation a
// caller performs over the entries — is identical to iterating threads in
// order with each thread's block indices sorted ascending, the fixed
// order the projection code has always used.
func (r *Region) SparseVector(nblocks int) []SparseEntry {
	total := 0
	for _, tv := range r.Vectors {
		total += len(tv)
	}
	out := make([]SparseEntry, 0, total)
	for t, tv := range r.Vectors {
		base := t * nblocks
		start := len(out)
		for blk, w := range tv {
			out = append(out, SparseEntry{Index: base + blk, Weight: w})
		}
		seg := out[start:]
		sort.Slice(seg, func(i, j int) bool { return seg[i].Index < seg[j].Index })
	}
	return out
}
