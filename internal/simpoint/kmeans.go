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
	mv     []float64 // per-centroid movement since last iteration (inflated)
	half   []float64 // per-centroid half-distance to nearest other centroid (deflated)
	upper  []float64 // per-point upper bound on distance to assigned centroid
	lower  []float64 // per-point lower bound on distance to any other centroid
	assign []int
	d2     []float64 // k-means++ running nearest-centroid distances
}

func newKMeansScratch(n, k, dims int) *kmeansScratch {
	return &kmeansScratch{
		cents:  make([]float64, k*dims),
		prev:   make([]float64, k*dims),
		counts: make([]int, k),
		mv:     make([]float64, k),
		half:   make([]float64, k),
		upper:  make([]float64, n),
		lower:  make([]float64, n),
		assign: make([]int, n),
		d2:     make([]float64, n),
	}
}

// kmeansFast is the accelerated k-means engine: k-means++ seeding with
// incrementally maintained nearest-centroid distances, then Lloyd
// iterations with Hamerly-style triangle-inequality bounds that skip
// provably-unchanged assignments. It returns exactly what KMeansSlow
// returns for the same inputs — identical assignments, centroids, and
// distortion, bit for bit:
//
//   - the RNG consumption and the ++ selection arithmetic are the slow
//     path's, and the incremental distance minima are the same floats the
//     slow path's full recomputation produces (min over identical terms);
//   - an assignment is skipped only when the slack-guarded bounds prove
//     the exact argmin could not change; whenever a point is actually
//     evaluated, the evaluation is the slow path's loop — centroids in
//     index order, strict less-than — so tie-breaking matches;
//   - centroid recomputation accumulates members in point order over the
//     flat arrays, the same op sequence as the slow path's nested loops,
//     and the iteration/termination structure is mirrored exactly.
func kmeansFast(pts []float64, n, dims, k int, seed uint64, maxIter int) ([]int, [][]float64, float64) {
	s := newKMeansScratch(n, k, dims)
	rng := seed | 1
	next := func() uint64 {
		rng = splitmix64(rng)
		return rng
	}
	pt := func(i int) []float64 { return pts[i*dims : (i+1)*dims] }
	cent := func(j int) []float64 { return s.cents[j*dims : (j+1)*dims] }

	// k-means++ seeding. The slow path recomputes every point's nearest
	// seeded centroid from scratch per round (O(nk²·dims)); here d2 holds
	// the running minimum and each round folds in only the newest
	// centroid (O(nk·dims)). Seeded centroids never move, so the running
	// minimum is the same float the full recomputation's first-strict-
	// minimum scan yields.
	first := int(next() % uint64(n))
	copy(cent(0), pt(first))
	for m := 1; m < k; m++ {
		newest := s.cents[(m-1)*dims : m*dims]
		var sum float64
		for i := 0; i < n; i++ {
			d := sqDist(pt(i), newest)
			if m == 1 || d < s.d2[i] {
				s.d2[i] = d
			}
			sum += s.d2[i]
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

	const inflate = 1 + boundSlack
	const deflate = 1 - boundSlack
	assign := s.assign
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		if iter == 0 {
			// First pass: every point is evaluated exactly; bounds are
			// initialized from the true best and second-best distances.
			for i := 0; i < n; i++ {
				bestJ, bestD, secondD := argmin2(pt(i), s.cents, k, dims)
				if assign[i] != bestJ {
					assign[i] = bestJ
					changed = true
				}
				s.upper[i] = math.Sqrt(bestD) * inflate
				s.lower[i] = math.Sqrt(secondD) * deflate
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
				}
				s.upper[i] = math.Sqrt(bestD) * inflate
				s.lower[i] = math.Sqrt(secondD) * deflate
			}
		}
		if !changed && iter > 0 {
			break
		}

		// Recompute centroids from the assignments — the slow path's op
		// sequence on flat arrays: zero, accumulate members in point
		// order, divide occupied centroids (a dead centroid becomes the
		// origin, compacted later).
		copy(s.prev, s.cents)
		for j := range s.counts {
			s.counts[j] = 0
		}
		for i := range s.cents {
			s.cents[i] = 0
		}
		for i := 0; i < n; i++ {
			j := assign[i]
			s.counts[j]++
			c := s.cents[j*dims : (j+1)*dims]
			for d, x := range pt(i) {
				c[d] += x
			}
		}
		for j := 0; j < k; j++ {
			if s.counts[j] == 0 {
				continue
			}
			c := cent(j)
			for d := 0; d < dims; d++ {
				c[d] /= float64(s.counts[j])
			}
		}

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
			s.lower[i] = s.lower[i]*deflate - maxMv
		}
		// Half the distance from each centroid to its nearest sibling: a
		// point within that radius of its centroid cannot be closer to
		// any other (Hamerly's second pruning condition).
		for j := 0; j < k; j++ {
			minD := math.Inf(1)
			for j2 := 0; j2 < k; j2++ {
				if j2 == j {
					continue
				}
				if d := sqDist(cent(j), cent(j2)); d < minD {
					minD = d
				}
			}
			s.half[j] = 0.5 * math.Sqrt(minD) * deflate
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

// argmin2 scans the flat centroid array in index order with strict
// less-than comparisons — the slow path's argmin, verbatim — and also
// tracks the second-best distance for the Hamerly lower bound.
//
// Distances accumulate term by term in dimension order, exactly like
// sqDist, so any distance that finishes the scan is the same float the
// slow path computes. A centroid may be abandoned early once its partial
// sum reaches secondD: squared terms only grow the sum, so the full
// distance would satisfy d >= secondD >= bestD and could change neither
// the argmin (strict <) nor the second-best — the abandoned value is
// never used.
func argmin2(p, cents []float64, k, dims int) (bestJ int, bestD, secondD float64) {
	bestD, secondD = math.Inf(1), math.Inf(1)
	for j := 0; j < k; j++ {
		c := cents[j*dims : (j+1)*dims]
		var s float64
		i := 0
		for i+4 <= dims {
			d := p[i] - c[i]
			s += d * d
			d = p[i+1] - c[i+1]
			s += d * d
			d = p[i+2] - c[i+2]
			s += d * d
			d = p[i+3] - c[i+3]
			s += d * d
			i += 4
			if s >= secondD {
				break
			}
		}
		if s >= secondD {
			continue // provably neither best nor second-best
		}
		for ; i < dims; i++ {
			d := p[i] - c[i]
			s += d * d
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
