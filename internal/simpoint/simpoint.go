// Package simpoint implements SimPoint-style phase clustering (paper
// Section III-E): per-thread BBVs are concatenated into one global vector
// per region, normalized, projected to a low dimension by a deterministic
// random linear projection, and clustered with k-means; the number of
// clusters is chosen with the Bayesian Information Criterion up to maxK.
// One representative region per cluster (the one nearest the centroid) is
// selected, weighted by the work its cluster represents.
//
// The package keeps two implementations of the pipeline. The fast engine
// (the default) materializes regions as sorted sparse vectors, caches
// projection-matrix rows so each touched row is hashed exactly once,
// accelerates Lloyd's iterations with Hamerly-style triangle-inequality
// bounds over flat contiguous arrays, and fans the k=1..maxK BIC sweep
// out over a worker pool. The naive reference (slowpath_test.go:
// ProjectRegionsSlow, KMeansSlow, ClusterSlow) is the original
// straight-line implementation, kept as the oracle the identity tests
// compare the fast engine against byte for byte; nothing but tests calls
// it.
package simpoint

import (
	"context"
	"fmt"
	"math"

	"looppoint/internal/bbv"
	"looppoint/internal/pool"
)

// DefaultDims is the projected dimensionality used by the paper.
const DefaultDims = 100

// DefaultMaxK is the paper's maximum cluster count.
const DefaultMaxK = 50

// bicCutoff selects the smallest k scoring at least this fraction of
// the best BIC range (the standard SimPoint heuristic), and lloydIters
// bounds the Lloyd iterations of each k's run. They are constants of the
// method, not options; the product sweep and its reference (slowpath_test.go)
// read the same two.
const (
	bicCutoff  = 0.9
	lloydIters = 100
)

// splitmix64 is the deterministic hash behind the projection matrix and
// the k-means seeding.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// projEntry returns the pseudo-random projection matrix entry in [-1, 1)
// for (row, col) under the given seed, without materializing the matrix.
func projEntry(seed uint64, row, col int) float64 {
	h := splitmix64(seed ^ splitmix64(uint64(row)*0x100000001B3+uint64(col)))
	return float64(float64(h>>11)/float64(1<<53))*2 - 1
}

// projRows lazily materializes projection-matrix rows into one flat
// backing array, so each touched row costs its dims splitmix64 hashes
// exactly once per projection pass instead of once per (region, entry).
type projRows struct {
	seed uint64
	dims int
	off  map[int]int // row index → offset into flat
	flat []float64
}

func newProjRows(seed uint64, dims int) *projRows {
	return &projRows{seed: seed, dims: dims, off: make(map[int]int)}
}

// row returns the dims projection entries of the given matrix row. The
// returned slice aliases the cache and is only valid until the next call
// (growth may reallocate the backing array).
func (p *projRows) row(r int) []float64 {
	off, ok := p.off[r]
	if !ok {
		off = len(p.flat)
		for d := 0; d < p.dims; d++ {
			p.flat = append(p.flat, projEntry(p.seed, r, d))
		}
		p.off[r] = off
	}
	return p.flat[off : off+p.dims]
}

// ProjectRegionsN concatenates each region's per-thread BBVs into one
// global sparse vector (thread t's block b maps to row t*nblocks+b),
// normalizes it to unit L1 mass, and projects it to dims dimensions.
// The concatenation preserves per-thread behaviour so heterogeneous
// regions cluster apart (Section III-B).
//
// This is the sparse fast path: regions are materialized as sorted
// (index, weight) vectors and projected by sparse dot products against
// cached matrix rows. The accumulation order — threads in order, block
// indices ascending — matches ProjectRegionsSlow term for term, so the
// output is byte-identical to the naive path. The work fans out over a
// worker pool (workers <= 0 means one per CPU): each region's projection
// is an independent computation and results are gathered by region
// index, so the output is byte-identical at every width.
func ProjectRegionsN(regions []*bbv.Region, nblocks, dims int, seed uint64, workers int) [][]float64 {
	return projectAll(regions, nblocks, dims, seed, 0, workers)
}

// SumProjectRegionsN is the naive alternative used by the baseline
// multi-threaded SimPoint adaptation: per-thread vectors are summed
// instead of concatenated, losing thread-heterogeneity information.
// Like ProjectRegionsN it runs on the sparse fast path (rows are folded
// modulo nblocks, preserving the per-(thread, block) accumulation order
// of SumProjectRegionsSlow, which keeps the floats identical) and is
// byte-identical at every width.
func SumProjectRegionsN(regions []*bbv.Region, nblocks, dims int, seed uint64, workers int) [][]float64 {
	return projectAll(regions, nblocks, dims, seed, nblocks, workers)
}

// projectAll materializes every region as a sorted sparse vector,
// populates the projection-row cache for the union of touched rows, and
// projects each region by sparse dot products. The three phases exist so
// the parallel ones touch only per-region state: materialization and
// projection fan out over the pool (independent per region, gathered by
// index), while the shared row cache is filled in between by one
// goroutine and is read-only afterwards.
func projectAll(regions []*bbv.Region, nblocks, dims int, seed uint64, foldMod, workers int) [][]float64 {
	n := len(regions)
	svs := make([][]bbv.SparseEntry, n)
	if n == 0 {
		return nil
	}
	// Phase 1: materialize sparse vectors (parallel).
	mapNoErr(workers, n, func(i int) { svs[i] = regions[i].SparseVector(nblocks) })
	// Phase 2: populate the row cache once per touched row (serial).
	rows := newProjRows(seed, dims)
	for _, sv := range svs {
		for _, e := range sv {
			rows.row(foldRow(e.Index, foldMod))
		}
	}
	// Phase 3: project (parallel; cache is read-only now).
	out := make([][]float64, n)
	mapNoErr(workers, n, func(i int) { out[i] = projectSparse(svs[i], rows, dims, foldMod) })
	return out
}

// mapNoErr runs fn over [0, n) on the pool; the closure cannot fail and
// the pool only errors on context cancellation, which Background never
// does.
func mapNoErr(workers, n int, fn func(i int)) {
	_ = pool.Run(context.Background(), workers, n, func(_ context.Context, i int) error {
		fn(i)
		return nil
	})
}

// foldRow maps a sparse-entry index to its projection-matrix row: the
// index itself for the concatenated layout, index % foldMod for the
// summed baseline (every thread shares the first nblocks rows).
func foldRow(idx, foldMod int) int {
	if foldMod > 0 {
		return idx % foldMod
	}
	return idx
}

// projectSparse projects one materialized sparse BBV. Contributions are
// accumulated entry by entry in sorted order — the same term order as the
// naive per-map traversal — so results match the slow path bit for bit.
func projectSparse(sv []bbv.SparseEntry, rows *projRows, dims, foldMod int) []float64 {
	v := make([]float64, dims)
	var total float64
	for _, e := range sv {
		total += e.Weight
	}
	if total == 0 {
		return v
	}
	for _, e := range sv {
		nw := e.Weight / total
		pr := rows.row(foldRow(e.Index, foldMod))[:len(v)]
		for d := range v {
			v[d] += float64(nw * pr[d])
		}
	}
	return v
}

// Result describes a clustering outcome.
type Result struct {
	K         int
	Assign    []int       // cluster per region
	Centroids [][]float64 // K centroids
	// Reps holds, per cluster, the index of the region closest to the
	// centroid — the cluster's representative (the looppoint).
	Reps []int
	// ClusterWeight is the summed region weight per cluster, normalized
	// to 1 across clusters.
	ClusterWeight []float64
	// BICByK records the BIC score for each k evaluated (index k-1).
	BICByK []float64
	// Distortion is the final sum of squared distances.
	Distortion float64
}

// Options configures clustering.
type Options struct {
	MaxK int    // maximum clusters (default DefaultMaxK)
	Seed uint64 // deterministic seeding
	// Workers bounds the parallel k=1..maxK BIC sweep (0 = one worker
	// per CPU, 1 = serial). Every k is an independent k-means run with
	// its own seed, and attempts are gathered by k, so the Result is
	// byte-identical at every width.
	Workers int
}

func (o *Options) fill() {
	if o.MaxK <= 0 {
		o.MaxK = DefaultMaxK
	}
}

// attempt is one k-means run of the BIC sweep.
type attempt struct {
	k      int
	assign []int
	cents  [][]float64
	bic    float64
	dist   float64
}

// Cluster clusters the projected vectors. weights give each region's work
// (filtered instruction count); they drive representative weighting only,
// not the geometry.
//
// The k=1..maxK sweep runs on a worker pool (Options.Workers): each k is
// seeded independently (Seed+k) exactly as the serial sweep always was,
// and attempts are collected by k before the BIC threshold scan, so the
// chosen k, assignments, and scores do not depend on the width.
func Cluster(vectors [][]float64, weights []float64, opts Options) (*Result, error) {
	return cluster(vectors, weights, opts, fastSweep)
}

// fastSweep runs the k=1..maxK k-means attempts on the worker pool over
// one flat copy of the vectors.
func fastSweep(vectors [][]float64, maxK int, varFloor float64, opts Options) ([]attempt, error) {
	n, dims := len(vectors), len(vectors[0])
	flat := make([]float64, n*dims)
	for i, v := range vectors {
		copy(flat[i*dims:(i+1)*dims], v)
	}
	attempts, err := pool.Map(context.Background(), opts.Workers, maxK,
		func(_ context.Context, i int) (attempt, error) {
			k := i + 1
			assign, cents, dist := kmeansFast(flat, n, dims, k, opts.Seed+uint64(k), lloydIters)
			return attempt{k, assign, cents, bic(vectors, assign, cents, dist, varFloor), dist}, nil
		})
	if err != nil {
		return nil, fmt.Errorf("simpoint: BIC sweep: %w", err)
	}
	return attempts, nil
}

// cluster is Cluster around a given k-sweep: input checks, the variance
// floor, the BIC threshold scan and representative selection are one
// code path; only how the per-k attempts are produced differs between
// the product (fastSweep) and the reference (ClusterSlow).
func cluster(vectors [][]float64, weights []float64, opts Options,
	sweep func(vectors [][]float64, maxK int, varFloor float64, opts Options) ([]attempt, error)) (*Result, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("simpoint: no regions to cluster")
	}
	if len(weights) != len(vectors) {
		return nil, fmt.Errorf("simpoint: %d weights for %d vectors", len(weights), len(vectors))
	}
	opts.fill()
	n := len(vectors)
	maxK := opts.MaxK
	if maxK > n {
		maxK = n
	}

	// Variance floor: synthetic or extremely regular workloads can have
	// regions that are near-duplicates, driving within-cluster variance
	// toward zero and making the spherical-Gaussian log-likelihood grow
	// without bound as k increases — the classic X-means failure mode
	// when the dimensionality (100) exceeds the number of regions (often
	// a few dozen here, versus thousands of slices at paper scale).
	// Real BBVs carry measurement noise that bounds this; we emulate that
	// noise floor as a fraction of the data's total variance so the
	// likelihood saturates once genuine cluster structure is captured and
	// the parameter penalty can select a parsimonious k. The 5% setting
	// means structure explaining at least ~95% of the variance is
	// resolvable and residual jitter is not chased.
	varFloor := dataVariance(vectors) * 0.05
	if varFloor < 1e-12 {
		varFloor = 1e-12
	}

	attempts, err := sweep(vectors, maxK, varFloor, opts)
	if err != nil {
		return nil, err
	}

	best := math.Inf(-1)
	worst := math.Inf(1)
	for _, a := range attempts {
		if a.bic > best {
			best = a.bic
		}
		if a.bic < worst {
			worst = a.bic
		}
	}
	// Smallest k whose BIC reaches the threshold fraction of the range.
	cut := worst + float64(bicCutoff*(best-worst))
	chosen := attempts[len(attempts)-1]
	for _, a := range attempts {
		if a.bic >= cut {
			chosen = a
			break
		}
	}

	res := &Result{
		K:          chosen.k,
		Assign:     chosen.assign,
		Centroids:  chosen.cents,
		Distortion: chosen.dist,
	}
	for _, a := range attempts {
		res.BICByK = append(res.BICByK, a.bic)
	}

	// Representatives and weights.
	res.Reps = make([]int, chosen.k)
	res.ClusterWeight = make([]float64, chosen.k)
	bestDist := make([]float64, chosen.k)
	for j := range res.Reps {
		res.Reps[j] = -1
		bestDist[j] = math.Inf(1)
	}
	var totalW float64
	for i, v := range vectors {
		j := chosen.assign[i]
		d := sqDist(v, chosen.cents[j])
		if d < bestDist[j] {
			bestDist[j], res.Reps[j] = d, i
		}
		res.ClusterWeight[j] += weights[i]
		totalW += weights[i]
	}
	if totalW > 0 {
		for j := range res.ClusterWeight {
			res.ClusterWeight[j] /= totalW
		}
	}
	// Drop empty clusters (possible when k-means loses a centroid).
	res.compact()
	return res, nil
}

func (r *Result) compact() {
	remap := make([]int, len(r.Reps))
	var reps []int
	var ws []float64
	var cents [][]float64
	for j, rep := range r.Reps {
		if rep < 0 {
			remap[j] = -1
			continue
		}
		remap[j] = len(reps)
		reps = append(reps, rep)
		ws = append(ws, r.ClusterWeight[j])
		cents = append(cents, r.Centroids[j])
	}
	for i, a := range r.Assign {
		if remap[a] >= 0 {
			r.Assign[i] = remap[a]
		}
	}
	r.Reps, r.ClusterWeight, r.Centroids = reps, ws, cents
	r.K = len(reps)
}

// dataVariance returns the average squared distance of the vectors from
// their global mean.
func dataVariance(vectors [][]float64) float64 {
	if len(vectors) == 0 {
		return 0
	}
	dims := len(vectors[0])
	mean := make([]float64, dims)
	for _, v := range vectors {
		for d, x := range v {
			mean[d] += x
		}
	}
	for d := range mean {
		mean[d] /= float64(len(vectors))
	}
	var sum float64
	for _, v := range vectors {
		sum += sqDist(v, mean)
	}
	return sum / float64(len(vectors))
}

// bic computes the Bayesian Information Criterion of a clustering under
// the identical-spherical-Gaussian model (Pelleg & Moore's X-means
// formulation, as used by SimPoint).
func bic(vectors [][]float64, assign []int, cents [][]float64, distortion, varFloor float64) float64 {
	r := float64(len(vectors))
	k := float64(len(cents))
	m := float64(len(vectors[0]))
	variance := distortion / math.Max(r-k, 1)
	if variance < varFloor {
		variance = varFloor
	}
	counts := make([]float64, len(cents))
	for _, a := range assign {
		counts[a]++
	}
	var llh float64
	for _, rn := range counts {
		if rn <= 0 {
			continue
		}
		llh += float64(rn*math.Log(rn)) - float64(rn*math.Log(r)) -
			float64(rn*m/2*math.Log(2*math.Pi*variance)) - float64((rn-1)*m/2)
	}
	params := k * (m + 1)
	return llh - float64(params/2*math.Log(r))
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}
