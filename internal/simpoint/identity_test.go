package simpoint

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"looppoint/internal/bbv"
)

// The fast clustering engine (sparse projection, Hamerly-bounded k-means,
// parallel BIC sweep) must be byte-identical to the naive reference path:
// same seeds in, same floats out, for projections, per-k k-means runs,
// and the full Cluster Result. These tests are the contract that lets
// pre-existing selections, resume stores, and golden files stay valid.

// testRNG is a tiny deterministic generator for fuzz-style inputs.
type testRNG uint64

func (r *testRNG) next() uint64 {
	*r = testRNG(splitmix64(uint64(*r)))
	return uint64(*r)
}

func (r *testRNG) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *testRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randomRegions builds a random multi-threaded BBV region set: sparse
// per-thread vectors with random supports and weights, plus occasional
// empty threads and duplicate regions to hit the degenerate paths.
func randomRegions(rng *testRNG, n, threads, nblocks int) []*bbv.Region {
	regions := make([]*bbv.Region, n)
	for i := range regions {
		vecs := make([]map[int]float64, threads)
		for t := range vecs {
			vecs[t] = map[int]float64{}
			if rng.intn(10) == 0 {
				continue // empty thread
			}
			for b := 0; b < 1+rng.intn(12); b++ {
				vecs[t][rng.intn(nblocks)] = float64(1 + rng.intn(1000))
			}
		}
		regions[i] = &bbv.Region{Index: i, Vectors: vecs}
	}
	// Duplicate a few regions verbatim: identical projected points force
	// exact distance ties, dead centroids, and compact() remapping.
	for i := 2; i < n; i += 5 {
		regions[i].Vectors = regions[i-1].Vectors
	}
	return regions
}

func TestProjectRegionsFastSlowIdentity(t *testing.T) {
	rng := testRNG(7)
	for trial := 0; trial < 6; trial++ {
		n := 5 + rng.intn(40)
		threads := 1 + rng.intn(8)
		nblocks := 16 + rng.intn(200)
		dims := 4 + rng.intn(32)
		seed := rng.next()
		regions := randomRegions(&rng, n, threads, nblocks)

		fast := ProjectRegionsN(regions, nblocks, dims, seed, 1)
		slow := ProjectRegionsSlow(regions, nblocks, dims, seed)
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("trial %d: ProjectRegions fast/slow differ (n=%d threads=%d nblocks=%d dims=%d seed=%d)",
				trial, n, threads, nblocks, dims, seed)
		}
		sumFast := SumProjectRegionsN(regions, nblocks, dims, seed, 1)
		sumSlow := SumProjectRegionsSlow(regions, nblocks, dims, seed)
		if !reflect.DeepEqual(sumFast, sumSlow) {
			t.Fatalf("trial %d: SumProjectRegions fast/slow differ", trial)
		}
	}
}

func TestKMeansFastSlowIdentity(t *testing.T) {
	rng := testRNG(99)
	cases := [][][]float64{}
	// Well-separated blobs, noisy data, exact duplicates, and all-equal
	// points (forces sum==0 seeding and coincident centroids).
	vecs, _ := blobs(90, 4, 12, 5)
	cases = append(cases, vecs)
	noisy := make([][]float64, 60)
	for i := range noisy {
		v := make([]float64, 10)
		for d := range v {
			v[d] = rng.float() * 10
		}
		noisy[i] = v
	}
	for i := 3; i < len(noisy); i += 4 {
		noisy[i] = noisy[i-1] // duplicates: exact distance ties
	}
	cases = append(cases, noisy)
	same := make([][]float64, 20)
	for i := range same {
		same[i] = []float64{1, 2, 3}
	}
	cases = append(cases, same)

	for ci, vs := range cases {
		n, dims := len(vs), len(vs[0])
		flat := make([]float64, n*dims)
		for i, v := range vs {
			copy(flat[i*dims:], v)
		}
		for k := 1; k <= 8 && k <= n; k++ {
			for _, seed := range []uint64{1, 3, 17} {
				sa, sc, sd := KMeansSlow(vs, k, seed, 100)
				fa, fc, fd := kmeansFast(flat, n, dims, k, seed, 100)
				if !reflect.DeepEqual(sa, fa) {
					t.Fatalf("case %d k=%d seed=%d: assignments differ\nslow: %v\nfast: %v", ci, k, seed, sa, fa)
				}
				if !reflect.DeepEqual(sc, fc) {
					t.Fatalf("case %d k=%d seed=%d: centroids differ", ci, k, seed)
				}
				if sd != fd {
					t.Fatalf("case %d k=%d seed=%d: distortion differs: %v vs %v", ci, k, seed, sd, fd)
				}
			}
		}
	}
}

// TestClusterFastSlowIdentityFuzz clusters random BBV sets end to end on
// both paths and asserts the Result structs are identical — the satellite
// fuzz-style identity requirement.
func TestClusterFastSlowIdentityFuzz(t *testing.T) {
	rng := testRNG(1234)
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.intn(60)
		threads := 1 + rng.intn(6)
		nblocks := 20 + rng.intn(150)
		dims := 6 + rng.intn(20)
		seed := rng.next()
		maxK := 1 + rng.intn(12)
		regions := randomRegions(&rng, n, threads, nblocks)
		vectors := ProjectRegionsN(regions, nblocks, dims, seed, 1)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.intn(10_000))
		}

		slow, err := ClusterSlow(vectors, weights, Options{MaxK: maxK, Seed: seed})
		if err != nil {
			t.Fatalf("trial %d: slow: %v", trial, err)
		}
		for _, workers := range []int{1, 4} {
			fast, err := Cluster(vectors, weights, Options{MaxK: maxK, Seed: seed, Workers: workers})
			if err != nil {
				t.Fatalf("trial %d: fast(workers=%d): %v", trial, workers, err)
			}
			if !reflect.DeepEqual(slow, fast) {
				t.Fatalf("trial %d (n=%d maxK=%d seed=%d workers=%d): fast/slow Results differ\nslow: %+v\nfast: %+v",
					trial, n, maxK, seed, workers, slow, fast)
			}
		}
	}
}

// reselectVectors builds n points at DefaultDims shaped like a
// re-selection's input, where every pruning rule of kmeansFast fires:
// five-centre blobs, every third point a verbatim copy of the one before
// it, and the last tenth of the points coincident, midway between the
// first two centres. Two changes to the blobs make the rules decide
// outcomes:
//   - the noise along axis 5 is stretched 32×, so each blob is long in
//     one direction: k-means splits it into a chain of clusters whose
//     boundary points move between Lloyd passes, and the half-distance
//     test is what skips them;
//   - coordinates are snapped to a 1/8 grid, so squared distances are
//     exact and a point is often exactly as far from two distinct seeds:
//     the first pass meets ties.
func reselectVectors(n int) [][]float64 {
	vecs, _ := blobs(n, 5, DefaultDims, 37)
	for i, v := range vecs {
		v[5] *= 32
		for d := range v {
			v[d] = math.Round(v[d]*8) / 8
		}
		if i%3 == 2 {
			vecs[i] = vecs[i-1]
		}
	}
	mid := make([]float64, DefaultDims)
	mid[0], mid[1] = 5, 5
	for i := n - n/10; i < n; i++ {
		vecs[i] = mid
	}
	return vecs
}

// kmeansMismatch runs kmeansFast and KMeansSlow on the same points and
// describes the first output that differs, or returns "".
func kmeansMismatch(vs [][]float64, k int, seed uint64) string {
	n, dims := len(vs), len(vs[0])
	flat := make([]float64, n*dims)
	for i, v := range vs {
		copy(flat[i*dims:], v)
	}
	sa, sc, sd := KMeansSlow(vs, k, seed, lloydIters)
	fa, fc, fd := kmeansFast(flat, n, dims, k, seed, lloydIters)
	switch {
	case !reflect.DeepEqual(sa, fa):
		return fmt.Sprintf("assignments differ\nslow: %v\nfast: %v", sa, fa)
	case !reflect.DeepEqual(sc, fc):
		return "centroids differ"
	case sd != fd:
		return fmt.Sprintf("distortion differs: %v vs %v", sd, fd)
	}
	return ""
}

// TestClusterFastSlowIdentityAtScale runs the full MaxK 50 sweep at
// DefaultDims, where the seeding skip, the seeded first pass and the
// separation early exit decide most of the work; the small identity
// cases above barely reach them. The k = MaxK run is also compared
// directly: when two coincident seeds tie, compaction drops whichever
// one lost, so a Result alone can hide the wrong winner.
func TestClusterFastSlowIdentityAtScale(t *testing.T) {
	n := 210
	if testing.Short() {
		n = 80
	}
	vecs := reselectVectors(n)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(1 + i%7)
	}
	opts := Options{MaxK: 50, Seed: 5}
	slow, err := ClusterSlow(vecs, weights, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		opts.Workers = workers
		fast, err := Cluster(vecs, weights, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(slow, fast) {
			t.Fatalf("n=%d workers=%d: fast/slow Results differ\nslow: K=%d BIC=%v\nfast: K=%d BIC=%v",
				n, workers, slow.K, slow.BICByK, fast.K, fast.BICByK)
		}
	}
	if msg := kmeansMismatch(vecs, opts.MaxK, opts.Seed+uint64(opts.MaxK)); msg != "" {
		t.Fatalf("n=%d k=%d: %s", n, opts.MaxK, msg)
	}
}

// TestClusterWorkerWidthInvariant pins the parallel-sweep determinism
// contract directly: the Result is identical at every worker width.
func TestClusterWorkerWidthInvariant(t *testing.T) {
	vecs, _ := blobs(120, 5, 16, 31)
	w := ones(120)
	base, err := Cluster(vecs, w, Options{MaxK: 15, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := Cluster(vecs, w, Options{MaxK: 15, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: Result differs from workers=1", workers)
		}
	}
}

func TestClusterMaxKGreaterThanN(t *testing.T) {
	// maxK must clamp to n: the sweep evaluates exactly n attempts and
	// both paths agree, including on the degenerate n=1 and n=2 sets.
	for _, n := range []int{1, 2, 5} {
		vecs, _ := blobs(n, min(n, 2), 6, 3)
		w := ones(n)
		slow, err := ClusterSlow(vecs, w, Options{MaxK: 50, Seed: 2})
		if err != nil {
			t.Fatalf("n=%d slow: %v", n, err)
		}
		fast, err := Cluster(vecs, w, Options{MaxK: 50, Seed: 2})
		if err != nil {
			t.Fatalf("n=%d fast: %v", n, err)
		}
		if len(fast.BICByK) != n {
			t.Errorf("n=%d: %d BIC scores, want %d (maxK not clamped)", n, len(fast.BICByK), n)
		}
		if fast.K > n {
			t.Errorf("n=%d: chose k=%d > n", n, fast.K)
		}
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("n=%d: fast/slow differ under maxK > n", n)
		}
	}
}

// TestClusterDuplicatePointsCompact drives Cluster into the
// dead-centroid path: with every point identical, k-means++ seeds
// coincident centroids, all points collapse into cluster 0, and
// compact() must drop the empty clusters.
func TestClusterDuplicatePointsCompact(t *testing.T) {
	vecs := make([][]float64, 12)
	for i := range vecs {
		vecs[i] = []float64{4, 4, 4, 4}
	}
	for _, slow := range []bool{false, true} {
		engine := Cluster
		if slow {
			engine = ClusterSlow
		}
		res, err := engine(vecs, ones(12), Options{MaxK: 5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if res.K != 1 {
			t.Errorf("slow=%v: duplicate points produced K=%d, want 1", slow, res.K)
		}
		if len(res.Reps) != res.K || len(res.Centroids) != res.K || len(res.ClusterWeight) != res.K {
			t.Errorf("slow=%v: compact left inconsistent lengths: %d reps, %d cents, %d weights",
				slow, len(res.Reps), len(res.Centroids), len(res.ClusterWeight))
		}
		for i, a := range res.Assign {
			if a != 0 {
				t.Errorf("slow=%v: point %d assigned to %d after compaction", slow, i, a)
			}
		}
		if math.Abs(res.ClusterWeight[0]-1) > 1e-12 {
			t.Errorf("slow=%v: surviving cluster weight %v, want 1", slow, res.ClusterWeight[0])
		}
	}
}

// TestCompactDropsEmptyClusters unit-tests Result.compact directly:
// clusters whose representative is -1 (centroid lost during Lloyd
// iterations) are removed, survivors are renumbered in order, and
// assignments are remapped.
func TestCompactDropsEmptyClusters(t *testing.T) {
	r := &Result{
		K:             4,
		Assign:        []int{0, 2, 2, 0, 3},
		Centroids:     [][]float64{{0}, {9}, {2}, {3}},
		Reps:          []int{0, -1, 1, 4},
		ClusterWeight: []float64{0.5, 0, 0.3, 0.2},
	}
	r.compact()
	if r.K != 3 {
		t.Fatalf("K=%d after compact, want 3", r.K)
	}
	if want := []int{0, 1, 4}; !reflect.DeepEqual(r.Reps, want) {
		t.Errorf("Reps=%v, want %v", r.Reps, want)
	}
	if want := []int{0, 1, 1, 0, 2}; !reflect.DeepEqual(r.Assign, want) {
		t.Errorf("Assign=%v, want %v", r.Assign, want)
	}
	if want := [][]float64{{0}, {2}, {3}}; !reflect.DeepEqual(r.Centroids, want) {
		t.Errorf("Centroids=%v, want %v", r.Centroids, want)
	}
	if want := []float64{0.5, 0.3, 0.2}; !reflect.DeepEqual(r.ClusterWeight, want) {
		t.Errorf("ClusterWeight=%v, want %v", r.ClusterWeight, want)
	}
}

// TestClusterGoldenSelections freezes the fast path against a table of
// known-good outcomes computed by the reference path, so a regression in
// either engine — or a silent divergence between them — fails with a
// readable diff rather than deep inside an end-to-end run.
func TestClusterGoldenSelections(t *testing.T) {
	for _, tc := range []struct {
		n, trueK, dims, maxK int
		seed                 uint64
	}{
		{60, 3, 8, 10, 1},
		{80, 4, 6, 8, 5},
		{120, 6, 16, 20, 42},
	} {
		t.Run(fmt.Sprintf("n%d-k%d", tc.n, tc.trueK), func(t *testing.T) {
			vecs, _ := blobs(tc.n, tc.trueK, tc.dims, tc.seed)
			slow, err := ClusterSlow(vecs, ones(tc.n), Options{MaxK: tc.maxK, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			fast, err := Cluster(vecs, ones(tc.n), Options{MaxK: tc.maxK, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			if slow.K != tc.trueK {
				t.Errorf("reference path chose k=%d, want %d", slow.K, tc.trueK)
			}
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("fast path diverges from reference:\nslow: K=%d Reps=%v BIC=%v\nfast: K=%d Reps=%v BIC=%v",
					slow.K, slow.Reps, slow.BICByK, fast.K, fast.Reps, fast.BICByK)
			}
		})
	}
}

// TestSimPointSelectorMatchesDirectCluster pins the medoid engine to the
// plain SimPoint rule: Select("simpoint", …) must carry exactly the
// Result a direct Cluster call produces (same arguments, same floats)
// and draw exactly its Reps, one per cluster — the identity that keeps
// every existing selection, golden file, and stored result valid.
func TestSimPointSelectorMatchesDirectCluster(t *testing.T) {
	rng := testRNG(31)
	for trial := 0; trial < 5; trial++ {
		n := 8 + rng.intn(50)
		vectors, _ := blobs(n, 1+rng.intn(5), 6, uint64(rng.next()))
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.intn(100000))
		}
		opts := Options{MaxK: 8, Seed: uint64(trial) + 1, Workers: 1 + rng.intn(4)}

		direct, err := Cluster(vectors, weights, opts)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select("simpoint", vectors, weights, opts, SelectorOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sel.Result, direct) {
			t.Fatalf("trial %d: selector's clustering Result differs from a direct Cluster call", trial)
		}
		if len(sel.Regions) != direct.K {
			t.Fatalf("trial %d: %d draws for %d clusters", trial, len(sel.Regions), direct.K)
		}
		reps := append([]int(nil), direct.Reps...)
		sort.Ints(reps)
		for i, dr := range sel.Regions {
			if dr.Index != reps[i] {
				t.Fatalf("trial %d: draw %d is region %d, want medoid %d", trial, i, dr.Index, reps[i])
			}
			if direct.Assign[dr.Index] != dr.Stratum {
				t.Fatalf("trial %d: draw %d stratum %d, assignment says %d",
					trial, dr.Index, dr.Stratum, direct.Assign[dr.Index])
			}
			if st := sel.Strata[dr.Stratum]; st.Sampled != 1 {
				t.Fatalf("trial %d: medoid stratum %d sampled %d, want exactly 1", trial, dr.Stratum, st.Sampled)
			}
		}
	}
}

// fuzzKMeansInput encodes points for FuzzKMeansFastSlow: a five-byte
// header (n−1, k−1, dims−1, seed, duplicate stride code) and then every
// coordinate as a signed byte on a 1/8 grid.
func fuzzKMeansInput(vs [][]float64, k int, seed, dupCode byte) []byte {
	b := []byte{byte(len(vs) - 1), byte(k - 1), byte(len(vs[0]) - 1), seed, dupCode}
	for _, v := range vs {
		for _, x := range v {
			b = append(b, byte(int8(math.Round(x*8))))
		}
	}
	return b
}

// FuzzKMeansFastSlow is the differential fuzzer for the k-means engine:
// kmeansFast must return exactly what KMeansSlow returns — assignments,
// centroids and distortion — for any points, k, dims and seed. Points
// sit on a 1/8 grid, so squared distances are exact and ties are common,
// and every stride-th point is forced to repeat its predecessor.
func FuzzKMeansFastSlow(f *testing.F) {
	vecs, _ := blobs(90, 4, 12, 5)
	f.Add(fuzzKMeansInput(vecs, 8, 1, 0))
	noisy := make([][]float64, 60)
	rng := testRNG(99)
	for i := range noisy {
		noisy[i] = make([]float64, 10)
		for d := range noisy[i] {
			noisy[i][d] = rng.float() * 10
		}
	}
	f.Add(fuzzKMeansInput(noisy, 8, 3, 2))
	same := make([][]float64, 20)
	for i := range same {
		same[i] = []float64{1, 2, 3}
	}
	f.Add(fuzzKMeansInput(same, 5, 17, 1))
	f.Add(fuzzKMeansInput(reselectVectors(80), 50, 55, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 1 + int(data[0])%96
		k := min(1+int(data[1])%50, n)
		dims := 1 + int(data[2])%DefaultDims
		seed := uint64(data[3])
		stride := 2 + int(data[4])%6
		vals := data[5:]
		vs := make([][]float64, n)
		for i := range vs {
			if i%stride == stride-1 {
				vs[i] = vs[i-1]
				continue
			}
			vs[i] = make([]float64, dims)
			for d := range vs[i] {
				if len(vals) > 0 {
					vs[i][d] = float64(int8(vals[(i*dims+d)%len(vals)])) / 8
				}
			}
		}
		if msg := kmeansMismatch(vs, k, seed); msg != "" {
			t.Fatalf("n=%d k=%d dims=%d seed=%d: %s", n, k, dims, seed, msg)
		}
	})
}
