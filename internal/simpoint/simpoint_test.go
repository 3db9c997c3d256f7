package simpoint

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"looppoint/internal/bbv"
)

// blobs generates n vectors around k well-separated centers in dims
// dimensions, deterministically.
func blobs(n, k, dims int, seed uint64) ([][]float64, []int) {
	vecs := make([][]float64, n)
	truth := make([]int, n)
	rng := seed | 1
	next := func() float64 {
		rng = splitmix64(rng)
		return float64(rng>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		c := i % k
		truth[i] = c
		v := make([]float64, dims)
		for d := 0; d < dims; d++ {
			center := 0.0
			if d == c { // center c sits at 10 along axis c
				center = 10
			}
			v[d] = center + (next()-0.5)*0.2
		}
		vecs[i] = v
	}
	return vecs, truth
}

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestClusterRecoversBlobs(t *testing.T) {
	vecs, truth := blobs(60, 3, 8, 7)
	res, err := Cluster(vecs, ones(60), Options{MaxK: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("BIC chose k=%d, want 3 (scores %v)", res.K, res.BICByK)
	}
	// All members of one true blob must share a cluster.
	seen := map[int]int{}
	for i, a := range res.Assign {
		if prev, ok := seen[truth[i]]; ok && prev != a {
			t.Errorf("true blob %d split across clusters %d and %d", truth[i], prev, a)
		}
		seen[truth[i]] = a
	}
}

func TestAssignmentsAreNearestCentroid(t *testing.T) {
	vecs, _ := blobs(80, 4, 6, 3)
	res, err := Cluster(vecs, ones(80), Options{MaxK: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		if got := NearestCentroid(v, res.Centroids); got != res.Assign[i] {
			t.Errorf("vector %d assigned to %d but nearest centroid is %d", i, res.Assign[i], got)
		}
	}
}

func TestRepresentativesBelongToTheirClusters(t *testing.T) {
	vecs, _ := blobs(50, 5, 10, 11)
	res, err := Cluster(vecs, ones(50), Options{MaxK: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for j, rep := range res.Reps {
		if rep < 0 || rep >= len(vecs) {
			t.Fatalf("cluster %d has invalid representative %d", j, rep)
		}
		if res.Assign[rep] != j {
			t.Errorf("representative %d of cluster %d is assigned to cluster %d",
				rep, j, res.Assign[rep])
		}
	}
}

func TestClusterWeightsSumToOne(t *testing.T) {
	vecs, _ := blobs(40, 2, 5, 9)
	w := make([]float64, 40)
	for i := range w {
		w[i] = float64(i + 1)
	}
	res, err := Cluster(vecs, w, Options{MaxK: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, cw := range res.ClusterWeight {
		sum += cw
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cluster weights sum to %f", sum)
	}
}

func TestClusterDeterminism(t *testing.T) {
	vecs, _ := blobs(70, 3, 7, 13)
	r1, err := Cluster(vecs, ones(70), Options{MaxK: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Cluster(vecs, ones(70), Options{MaxK: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if r1.K != r2.K {
		t.Fatalf("k differs: %d vs %d", r1.K, r2.K)
	}
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
}

func TestClusterSingleVector(t *testing.T) {
	res, err := Cluster([][]float64{{1, 2, 3}}, []float64{5}, Options{MaxK: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 || res.Reps[0] != 0 || res.ClusterWeight[0] != 1 {
		t.Errorf("single-vector clustering: %+v", res)
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, nil, Options{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Cluster([][]float64{{1}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("mismatched weights accepted")
	}
}

func TestKMeansDistortionNonIncreasingInK(t *testing.T) {
	// Property: optimal distortion is non-increasing in k; our heuristic
	// k-means should follow the trend (allow small non-monotonic noise).
	vecs, _ := blobs(60, 4, 6, 17)
	prev := math.Inf(1)
	for k := 1; k <= 8; k++ {
		_, _, dist := KMeansSlow(vecs, k, 3, 100)
		if dist > prev*1.10 {
			t.Errorf("distortion rose sharply at k=%d: %f -> %f", k, prev, dist)
		}
		if dist < prev {
			prev = dist
		}
	}
}

func TestProjEntryProperties(t *testing.T) {
	f := func(seed uint64, row, col uint16) bool {
		v := projEntry(seed, int(row), int(col))
		// Deterministic and bounded.
		return v == projEntry(seed, int(row), int(col)) && v >= -1 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func regionsFor(vectors []map[int]float64) []*bbv.Region {
	var rs []*bbv.Region
	for i, v := range vectors {
		rs = append(rs, &bbv.Region{Index: i, Vectors: []map[int]float64{v}})
	}
	return rs
}

func TestProjectRegionsLinearity(t *testing.T) {
	// Scaling a BBV must not change its projected (normalized) vector.
	a := map[int]float64{0: 2, 3: 5, 7: 1}
	b := map[int]float64{0: 20, 3: 50, 7: 10}
	rs := regionsFor([]map[int]float64{a, b})
	proj := ProjectRegionsN(rs, 8, 10, 99, 1)
	for d := range proj[0] {
		if math.Abs(proj[0][d]-proj[1][d]) > 1e-9 {
			t.Fatalf("normalization broken at dim %d: %f vs %f", d, proj[0][d], proj[1][d])
		}
	}
}

func TestProjectRegionsDistinguishesThreads(t *testing.T) {
	// Two regions with the same total work but opposite thread
	// assignments must project differently under concatenation and
	// identically under summation (the naive baseline).
	r1 := &bbv.Region{Vectors: []map[int]float64{{1: 10}, {2: 10}}}
	r2 := &bbv.Region{Vectors: []map[int]float64{{2: 10}, {1: 10}}}
	concat := ProjectRegionsN([]*bbv.Region{r1, r2}, 4, 16, 5, 1)
	if dist := sqDist(concat[0], concat[1]); dist < 1e-6 {
		t.Errorf("concatenated projection lost thread heterogeneity (dist %g)", dist)
	}
	summed := SumProjectRegionsN([]*bbv.Region{r1, r2}, 4, 16, 5, 1)
	if dist := sqDist(summed[0], summed[1]); dist > 1e-9 {
		t.Errorf("summed projection should be identical (dist %g)", dist)
	}
}

func TestProjectEmptyRegion(t *testing.T) {
	r := &bbv.Region{Vectors: []map[int]float64{{}}}
	proj := ProjectRegionsN([]*bbv.Region{r}, 4, 8, 1, 1)
	for _, v := range proj[0] {
		if v != 0 {
			t.Fatal("empty region projected to non-zero vector")
		}
	}
}

func TestSortedClusterSizes(t *testing.T) {
	vecs, _ := blobs(30, 3, 5, 23)
	res, err := Cluster(vecs, ones(30), Options{MaxK: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.SortedClusterSizes()
	total := 0
	for i, s := range sizes {
		total += s
		if i > 0 && sizes[i] > sizes[i-1] {
			t.Error("sizes not descending")
		}
	}
	if total != 30 {
		t.Errorf("cluster sizes sum to %d, want 30", total)
	}
}

// NearestCentroid returns the centroid index closest to v: the invariant
// every final assignment must satisfy.
func NearestCentroid(v []float64, cents [][]float64) int {
	bestJ, bestD := 0, math.Inf(1)
	for j, c := range cents {
		if d := sqDist(v, c); d < bestD {
			bestJ, bestD = j, d
		}
	}
	return bestJ
}

// SortedClusterSizes returns the cluster occupancy counts in descending
// order (diagnostics).
func (r *Result) SortedClusterSizes() []int {
	counts := make([]int, r.K)
	for _, a := range r.Assign {
		counts[a]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	return counts
}
