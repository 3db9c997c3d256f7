package simpoint

import "math"

// boundSlack is the relative safety margin applied whenever a Hamerly
// bound is set or drifted. Upper bounds are inflated and lower bounds
// deflated by this factor, so the accumulated floating-point rounding of
// the bound arithmetic (additions, correctly-rounded sqrts, and the
// ~dims·ε error of an exact distance evaluation, all orders of magnitude
// below 1e-12 relative) can never make a bound claim an assignment is
// settled when the exact comparison the slow path performs would flip it.
// Exact ties — duplicate points or coincident centroids — leave no gap
// between the bounds, so the strict u < bound test always falls through
// to the exact path and reproduces the slow path's first-index
// tie-breaking. The slack only ever loosens bounds, costing a few extra
// exact distance evaluations, never a different result.
const boundSlack = 1e-12

// kmeansScratch holds every buffer one kmeansFast run needs, allocated
// once up front so the Lloyd iterations run with zero steady-state
// allocations. Centroids and points live in flat contiguous arrays — no
// [][]float64 pointer chasing on the hot distance loops.
type kmeansScratch struct {
	cents  []float64 // k*dims current centroids
	prev   []float64 // k*dims previous centroids (movement computation)
	counts []int     // per-centroid member count
	moved  []bool    // per-centroid: its member list changed this pass
	mv     []float64 // per-centroid movement since last iteration (inflated)
	half   []float64 // per-centroid half-distance to nearest other centroid (deflated)
	upper  []float64 // per-point upper bound on distance to assigned centroid
	lower  []float64 // per-point lower bound on distance to any other centroid
	assign []int
	d2     []float64 // running squared distance to the nearest seed
	near   []int     // index of that nearest seed (first index on ties)
	sep    []float64 // per-centroid squared distance to the nearest other centroid
	cc     []float64 // squared distance (or a lower bound on it) from the seed being folded to each earlier seed
}

func newKMeansScratch(n, k, dims int) *kmeansScratch {
	return &kmeansScratch{
		cents:  make([]float64, k*dims),
		prev:   make([]float64, k*dims),
		counts: make([]int, k),
		moved:  make([]bool, k),
		mv:     make([]float64, k),
		half:   make([]float64, k),
		upper:  make([]float64, n),
		lower:  make([]float64, n),
		assign: make([]int, n),
		d2:     make([]float64, n),
		near:   make([]int, n),
		sep:    make([]float64, k),
		cc:     make([]float64, k),
	}
}

// kmeansFast is the accelerated k-means engine. It returns exactly what
// KMeansSlow returns for the same inputs — identical assignments,
// centroids, and distortion, bit for bit — and skips only distances the
// triangle inequality proves cannot change that output:
//
//   - seeding keeps each point's nearest seed (d2, near) and folds in one
//     seed per round; a point is skipped when the new seed lies more than
//     2·√d2 from its nearest seed, since then it is strictly farther. The
//     RNG consumption and the ++ selection arithmetic are the slow path's,
//     and d2 is the same float the slow path's full rescan produces;
//   - the first Lloyd pass is the fold of the last seed: the running
//     minimum over seeds in index order with strict less-than is the slow
//     path's argmin, floats and first-index ties included;
//   - later passes skip a point when the slack-guarded Hamerly bounds
//     prove its argmin unchanged; an evaluated point runs the slow path's
//     loop — centroids in index order, strict less-than — in argmin2;
//   - the half-distances behind the bounds visit each centroid pair once
//     and drop a pair that can lower neither endpoint's minimum;
//   - centroid recomputation accumulates members in point order over the
//     flat arrays, the same op sequence as the slow path's nested loops,
//     and the iteration/termination structure is mirrored exactly; a
//     centroid whose member list did not change would be summed by the
//     same float sequence, so it is kept as it is.
//
// Every distance that is finished is accumulated term by term in
// dimension order (sqDist, partialSqDist), so it is the slow path's
// float; an abandoned partial sum is only ever used as a lower bound on
// that distance.
func kmeansFast(pts []float64, n, dims, k int, seed uint64, maxIter int) ([]int, [][]float64, float64) {
	s := newKMeansScratch(n, k, dims)
	rng := seed | 1
	next := func() uint64 {
		rng = splitmix64(rng)
		return rng
	}
	pt := func(i int) []float64 { return pts[i*dims : (i+1)*dims] }
	cent := func(j int) []float64 { return s.cents[j*dims : (j+1)*dims] }

	const inflate = 1 + boundSlack
	const deflate = 1 - boundSlack

	// fold folds seed j into every point's running nearest seed (d2,
	// near): the first-strict-minimum scan over seeds 0..j in index order
	// that the slow path repeats from scratch, advanced by one seed.
	// Seeds never move, so d2 is the float the full scan yields and near
	// its first index. A point is skipped when the new seed lies more
	// than twice its nearest distance from its nearest seed: then
	// d(p, j) ≥ d(j, near) − d(p, near) > d(p, near), so the strict <
	// could not fire. The test compares squares, cc > 4·d2, inflated by
	// the slack so rounding cannot license a skip the exact comparison
	// would overturn; an exact tie is never skipped. cc may be a partial
	// sum (a lower bound on the seed-pair distance), abandoned once it
	// passes 4·far, where far is the largest d2: past that it skips every
	// point anyway.
	far := math.Inf(1)
	fold := func(j int) {
		c := cent(j)
		for j2 := 0; j2 < j; j2++ {
			s.cc[j2] = partialSqDist(c, cent(j2), 4*far*inflate)
		}
		far = 0
		for i := 0; i < n; i++ {
			if j == 0 || s.cc[s.near[i]] <= 4*s.d2[i]*inflate {
				if d := sqDist(pt(i), c); j == 0 || d < s.d2[i] {
					s.d2[i], s.near[i] = d, j
				}
			}
			far = max(far, s.d2[i])
		}
	}

	// k-means++ seeding: round m folds in seed m−1 and draws seed m, so
	// the slow path's O(nk²·dims) recomputation costs O(nk·dims) minus
	// the skips.
	first := int(next() % uint64(n))
	copy(cent(0), pt(first))
	for m := 1; m < k; m++ {
		fold(m - 1)
		var sum float64
		for _, d := range s.d2[:n] {
			sum += d
		}
		var pick int
		if sum == 0 {
			pick = int(next() % uint64(n))
		} else {
			target := float64(next()>>11) / float64(1<<53) * sum
			acc := 0.0
			for i, d := range s.d2[:n] {
				acc += d
				if acc >= target {
					pick = i
					break
				}
			}
		}
		copy(s.cents[m*dims:(m+1)*dims], pt(pick))
	}

	assign := s.assign
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		if iter == 0 {
			// First pass: the seeding already holds every point's argmin
			// over seeds 0..k−2, so folding in seed k−1 completes the slow
			// path's argmin — same floats, same first-index tie. The
			// lower bound starts at 0, which is always valid: a point
			// that cannot skip on half[a] next pass gets an exact one
			// from argmin2 then.
			fold(k - 1)
			for j := range s.moved {
				s.moved[j] = true // the seeds are no members' means
			}
			for i := 0; i < n; i++ {
				if assign[i] != s.near[i] {
					assign[i] = s.near[i]
					changed = true
				}
				s.upper[i] = math.Sqrt(s.d2[i]) * inflate
				s.lower[i] = 0
			}
		} else {
			for i := 0; i < n; i++ {
				a := assign[i]
				bound := s.lower[i]
				if s.half[a] > bound {
					bound = s.half[a]
				}
				if s.upper[i] < bound {
					continue // provably still nearest; skip
				}
				// Tighten the upper bound with one exact distance before
				// paying for the full scan.
				s.upper[i] = math.Sqrt(sqDist(pt(i), cent(a))) * inflate
				if s.upper[i] < bound {
					continue
				}
				bestJ, bestD, secondD := argmin2(pt(i), s.cents, k, dims)
				if bestJ != a {
					assign[i] = bestJ
					changed = true
					s.moved[a], s.moved[bestJ] = true, true
				}
				s.upper[i] = math.Sqrt(bestD) * inflate
				s.lower[i] = math.Sqrt(secondD) * deflate
			}
		}
		if !changed && iter > 0 {
			break
		}

		// Recompute the centroids whose member lists changed — the slow
		// path's op sequence on flat arrays: zero, accumulate members in
		// point order, divide occupied centroids (a dead centroid becomes
		// the origin, compacted later).
		copy(s.prev, s.cents)
		for j, moved := range s.moved {
			if moved {
				s.counts[j] = 0
				clear(cent(j))
			}
		}
		for i := 0; i < n; i++ {
			if j := assign[i]; s.moved[j] {
				s.counts[j]++
				c := cent(j)
				for d, x := range pt(i) {
					c[d] += x
				}
			}
		}
		for j, moved := range s.moved {
			if !moved || s.counts[j] == 0 {
				continue
			}
			c := cent(j)
			for d := 0; d < dims; d++ {
				c[d] /= float64(s.counts[j])
			}
		}
		clear(s.moved)

		// Drift the bounds by the centroid movements (triangle
		// inequality): the assigned centroid moved at most mv[a] closer
		// or further, every other centroid at most maxMv closer.
		var maxMv float64
		for j := 0; j < k; j++ {
			s.mv[j] = math.Sqrt(sqDist(s.prev[j*dims:(j+1)*dims], cent(j))) * inflate
			if s.mv[j] > maxMv {
				maxMv = s.mv[j]
			}
		}
		for i := 0; i < n; i++ {
			s.upper[i] = (s.upper[i] + s.mv[assign[i]]) * inflate
			s.lower[i] = float64(s.lower[i]*deflate) - maxMv
		}
		// Half the distance from each centroid to its nearest sibling: a
		// point within that radius of its centroid cannot be closer to
		// any other (Hamerly's second pruning condition). Each unordered
		// pair is visited once (d(a, b) and d(b, a) are the same float:
		// the differences only flip sign), and a pair is abandoned once
		// its partial sum reaches both endpoints' running minima, when it
		// can lower neither. After row j every pair touching j is in, so
		// sep[j] is final.
		for j := 0; j < k; j++ {
			s.sep[j] = math.Inf(1)
		}
		for j := 0; j < k; j++ {
			for j2 := j + 1; j2 < k; j2++ {
				limit := max(s.sep[j], s.sep[j2])
				if d := partialSqDist(cent(j), cent(j2), limit); d < limit {
					s.sep[j] = min(s.sep[j], d)
					s.sep[j2] = min(s.sep[j2], d)
				}
			}
			s.half[j] = 0.5 * math.Sqrt(s.sep[j]) * deflate
		}
	}

	var dist float64
	for i := 0; i < n; i++ {
		dist += sqDist(pt(i), cent(assign[i]))
	}
	outAssign := make([]int, n)
	copy(outAssign, assign)
	cents := make([][]float64, k)
	for j := 0; j < k; j++ {
		cents[j] = append([]float64(nil), cent(j)...)
	}
	return outAssign, cents, dist
}

// partialSqDist is sqDist that may stop early: it accumulates the same
// terms in the same dimension order, so a sum below limit is the float
// sqDist returns, and it returns as soon as the partial sum reaches
// limit — squared terms only grow the sum, so the full distance would be
// at least limit too.
func partialSqDist(a, b []float64, limit float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d := a[i] - b[i]
		s += float64(d * d)
		d = a[i+1] - b[i+1]
		s += float64(d * d)
		d = a[i+2] - b[i+2]
		s += float64(d * d)
		d = a[i+3] - b[i+3]
		s += float64(d * d)
		if s >= limit {
			return s
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// argmin2 scans the flat centroid array in index order with strict
// less-than comparisons — the slow path's argmin, verbatim — and also
// tracks the second-best distance for the Hamerly lower bound.
//
// A centroid is abandoned once its partial sum reaches secondD: the full
// distance would satisfy d >= secondD >= bestD and could change neither
// the argmin (strict <) nor the second-best, so the abandoned value is
// never used; any distance that finishes is the slow path's float.
func argmin2(p, cents []float64, k, dims int) (bestJ int, bestD, secondD float64) {
	bestD, secondD = math.Inf(1), math.Inf(1)
	for j := 0; j < k; j++ {
		s := partialSqDist(p, cents[j*dims:(j+1)*dims], secondD)
		if s >= secondD {
			continue // provably neither best nor second-best
		}
		if s < bestD {
			secondD = bestD
			bestJ, bestD = j, s
		} else if s < secondD {
			secondD = s
		}
	}
	return bestJ, bestD, secondD
}
