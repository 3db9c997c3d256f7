package simpoint_test

// Property and fuzz tests for every selection engine, and for the naive
// medoid reference beside them. The invariants checked here are the
// contract downstream extrapolation rests on: stratum weights sum to 1,
// every draw belongs to its claimed stratum, draws are unique and
// sorted, per-draw weights are the stratum share split evenly across its
// draws, and the whole selection is a pure function of (vectors,
// weights, seeds) — identical at every clustering worker width.

import (
	"math"
	"reflect"
	"testing"

	"looppoint/internal/simpoint"
)

// propertyEngines lists the engines the property tests sweep: every
// product engine plus the naive medoid reference.
var propertyEngines = append(simpoint.SelectorNames(), naiveEngine)

// prng is a splitmix64 stream for deterministic synthetic inputs.
type prng uint64

func (r *prng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *prng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }
func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// synthPopulation builds a clustered synthetic region population: k
// well-separated centers in dim dimensions with per-region jitter, plus
// positive work weights.
func synthPopulation(seed uint64, n, k, dim int, jitter float64) (vectors [][]float64, weights []float64) {
	rng := prng(seed)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = float64(c*100) + 10*rng.float()
		}
	}
	vectors = make([][]float64, n)
	weights = make([]float64, n)
	for i := range vectors {
		c := i % k
		vectors[i] = make([]float64, dim)
		for d := range vectors[i] {
			vectors[i][d] = centers[c][d] + jitter*(rng.float()-0.5)
		}
		weights[i] = 1000 + 9000*rng.float()
	}
	return vectors, weights
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// checkSelectionInvariants asserts the engine-independent contract of a
// Selection over n regions.
func checkSelectionInvariants(t *testing.T, engine string, sel *simpoint.Selection, n int) {
	t.Helper()
	if sel.Engine != engine {
		t.Errorf("%s: Engine = %q", engine, sel.Engine)
	}
	var stratumSum float64
	for h, st := range sel.Strata {
		stratumSum += st.Weight
		if st.Sampled > st.Size() {
			t.Errorf("%s: stratum %d sampled %d of %d members", engine, h, st.Sampled, st.Size())
		}
		if st.Sampled < 0 {
			t.Errorf("%s: stratum %d negative draw count %d", engine, h, st.Sampled)
		}
	}
	if math.Abs(stratumSum-1) > 1e-9 {
		t.Errorf("%s: stratum weights sum to %v, want 1 within 1e-9", engine, stratumSum)
	}
	if len(sel.Regions) == 0 {
		t.Fatalf("%s: no draws", engine)
	}
	counts := make([]int, len(sel.Strata))
	var drawSum float64
	last := -1
	for _, dr := range sel.Regions {
		if dr.Index <= last {
			t.Fatalf("%s: draws not strictly ascending by region index (%d after %d)", engine, dr.Index, last)
		}
		last = dr.Index
		if dr.Index < 0 || dr.Index >= n {
			t.Fatalf("%s: draw index %d outside [0,%d)", engine, dr.Index, n)
		}
		if dr.Stratum < 0 || dr.Stratum >= len(sel.Strata) {
			t.Fatalf("%s: draw stratum %d outside [0,%d)", engine, dr.Stratum, len(sel.Strata))
		}
		st := sel.Strata[dr.Stratum]
		if !contains(st.Members, dr.Index) {
			t.Errorf("%s: draw %d is not a member of its claimed stratum %d", engine, dr.Index, dr.Stratum)
		}
		if sel.Result != nil && sel.Result.Assign[dr.Index] != dr.Stratum {
			t.Errorf("%s: draw %d claims stratum %d but clustering assigns %d",
				engine, dr.Index, dr.Stratum, sel.Result.Assign[dr.Index])
		}
		if st.Sampled > 0 {
			if want := st.Weight / float64(st.Sampled); dr.Weight != want {
				t.Errorf("%s: draw %d weight %v, want %v", engine, dr.Index, dr.Weight, want)
			}
		}
		drawSum += dr.Weight
		counts[dr.Stratum]++
	}
	if math.Abs(drawSum-1) > 1e-9 {
		t.Errorf("%s: draw weights sum to %v, want 1 within 1e-9", engine, drawSum)
	}
	for h, st := range sel.Strata {
		if st.Sampled != counts[h] {
			t.Errorf("%s: stratum %d says %d draws, selection holds %d", engine, h, st.Sampled, counts[h])
		}
	}
}

// runEngine selects with the given engine (or naiveMedoid), failing the
// test on error.
func runEngine(t *testing.T, engine string, vectors [][]float64, weights []float64,
	copts simpoint.Options, sopts simpoint.SelectorOpts) *simpoint.Selection {
	t.Helper()
	var sel *simpoint.Selection
	var err error
	if engine == naiveEngine {
		sel, err = naiveMedoid(vectors, weights, copts)
	} else {
		sel, err = simpoint.Select(engine, vectors, weights, copts, sopts)
	}
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	return sel
}

// TestSelectorInvariantsAllEngines sweeps every engine over
// several synthetic populations — including degenerate ones — checking
// the selection contract, determinism for a fixed seed, and that the
// inputs are never mutated.
func TestSelectorInvariantsAllEngines(t *testing.T) {
	cases := []struct {
		name        string
		n, k, dim   int
		jitter      float64
		zeroWeights bool
	}{
		{"clustered", 60, 4, 6, 2.0, false},
		{"tight", 30, 3, 4, 0.0, false}, // duplicate vectors, exact ties
		{"singleton", 1, 1, 3, 0.0, false},
		{"pair", 2, 1, 3, 0.0, false},
		{"zero-weights", 25, 3, 4, 1.0, true},
	}
	for _, tc := range cases {
		vectors, weights := synthPopulation(11, tc.n, tc.k, tc.dim, tc.jitter)
		if tc.zeroWeights {
			for i := range weights {
				weights[i] = 0
			}
		}
		vcopy := make([][]float64, len(vectors))
		for i := range vectors {
			vcopy[i] = append([]float64(nil), vectors[i]...)
		}
		wcopy := append([]float64(nil), weights...)

		copts := simpoint.Options{MaxK: 6, Seed: 42}
		sopts := simpoint.SelectorOpts{Budget: 12}
		for _, engine := range propertyEngines {
			sel := runEngine(t, engine, vectors, weights, copts, sopts)
			t.Run(tc.name+"/"+engine, func(t *testing.T) {
				checkSelectionInvariants(t, engine, sel, tc.n)
				again := runEngine(t, engine, vectors, weights, copts, sopts)
				if !reflect.DeepEqual(sel, again) {
					t.Error("selection not deterministic for a fixed seed")
				}
			})
		}
		if !reflect.DeepEqual(vectors, vcopy) || !reflect.DeepEqual(weights, wcopy) {
			t.Fatalf("%s: Select mutated its inputs", tc.name)
		}
	}
}

// TestSelectorWorkerWidthInvariant requires every engine to produce a
// byte-identical selection at every clustering worker width — the same
// contract the rest of the pipeline keeps for -j.
func TestSelectorWorkerWidthInvariant(t *testing.T) {
	vectors, weights := synthPopulation(23, 48, 4, 6, 2.0)
	sopts := simpoint.SelectorOpts{Budget: 16}
	for _, engine := range propertyEngines {
		base := runEngine(t, engine, vectors, weights, simpoint.Options{MaxK: 6, Seed: 7, Workers: 1}, sopts)
		for _, workers := range []int{2, 8} {
			sel := runEngine(t, engine, vectors, weights, simpoint.Options{MaxK: 6, Seed: 7, Workers: workers}, sopts)
			if !reflect.DeepEqual(base, sel) {
				t.Errorf("%s: selection differs between workers=1 and workers=%d", engine, workers)
			}
		}
	}
}

// TestStratifiedBudgetClamping pins the stratified engine's budget
// semantics: <=0 defaults to 2 draws per stratum, sub-K budgets clamp up
// to one per stratum, and budgets at or above N draw every region
// exactly once.
func TestStratifiedBudgetClamping(t *testing.T) {
	const n = 40
	vectors, weights := synthPopulation(5, n, 4, 6, 2.0)
	copts := simpoint.Options{MaxK: 6, Seed: 42}
	run := func(budget int) *simpoint.Selection {
		return runEngine(t, "stratified", vectors, weights, copts, simpoint.SelectorOpts{Budget: budget})
	}

	def := run(0)
	k := len(def.Strata)
	want := 2 * k
	if want > n {
		want = n
	}
	if len(def.Regions) != want {
		t.Errorf("default budget drew %d regions, want %d (2 per stratum)", len(def.Regions), want)
	}

	if low := run(1); len(low.Regions) != len(low.Strata) {
		t.Errorf("budget 1 drew %d regions, want one per stratum (%d)", len(low.Regions), len(low.Strata))
	}

	all := run(10 * n)
	if len(all.Regions) != n {
		t.Fatalf("budget %d drew %d regions, want all %d", 10*n, len(all.Regions), n)
	}
	for i, dr := range all.Regions {
		if dr.Index != i {
			t.Fatalf("exhaustive budget: draw %d is region %d, want %d", i, dr.Index, i)
		}
	}
}

// TestStratifiedNeymanFavorsVariance builds a population whose BBV
// scatter differs wildly across clusters and checks that Neyman
// allocation spends more of the budget on the high-scatter stratum than
// proportional allocation does on the same inputs.
func TestStratifiedNeymanFavorsVariance(t *testing.T) {
	// Two clusters, equal size and equal work: one tight, one scattered.
	const n = 40
	rng := prng(99)
	vectors := make([][]float64, n)
	weights := make([]float64, n)
	for i := range vectors {
		vectors[i] = make([]float64, 4)
		base := 0.0
		jitter := 0.01
		if i >= n/2 {
			base = 1000
			jitter = 50.0
		}
		for d := range vectors[i] {
			vectors[i][d] = base + jitter*(rng.float()-0.5)
		}
		weights[i] = 100
	}
	copts := simpoint.Options{MaxK: 4, Seed: 3}
	drawsInScattered := func(sel *simpoint.Selection) (int, bool) {
		// The scattered cluster is the stratum holding region n-1.
		for _, st := range sel.Strata {
			if contains(st.Members, n-1) {
				return st.Sampled, len(sel.Strata) == 2
			}
		}
		return 0, false
	}
	ney := runEngine(t, "stratified", vectors, weights, copts, simpoint.SelectorOpts{Budget: 12})
	prop := runEngine(t, "stratified", vectors, weights, copts, simpoint.SelectorOpts{Budget: 12, Proportional: true})
	nScat, ok1 := drawsInScattered(ney)
	pScat, ok2 := drawsInScattered(prop)
	if !ok1 || !ok2 {
		t.Skipf("clustering did not produce the expected 2 strata (%d/%d)", len(ney.Strata), len(prop.Strata))
	}
	if nScat <= pScat {
		t.Errorf("Neyman drew %d from the scattered stratum, proportional drew %d — Neyman should spend more where the variance lives", nScat, pScat)
	}
}

// FuzzSelectors drives every engine with adversarial
// populations derived from the fuzz seed and checks the full selection
// contract plus determinism. Degenerate shapes (single region, identical
// vectors, zero weights) are in the seed corpus.
func FuzzSelectors(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(3), uint16(8), false)
	f.Add(uint64(2), uint8(1), uint8(1), uint16(0), false)  // singleton
	f.Add(uint64(3), uint8(2), uint8(1), uint16(100), true) // over-budget
	f.Add(uint64(4), uint8(50), uint8(5), uint16(1), true)  // under-budget
	f.Add(uint64(5), uint8(9), uint8(2), uint16(4), false)  // tiny
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw uint8, budgetRaw uint16, zeroWeights bool) {
		n := 1 + int(nRaw)%64
		k := 1 + int(kRaw)%6
		vectors, weights := synthPopulation(seed, n, k, 4, 3.0)
		if zeroWeights {
			for i := range weights {
				weights[i] = 0
			}
		}
		copts := simpoint.Options{MaxK: 6, Seed: seed}
		sopts := simpoint.SelectorOpts{Budget: int(budgetRaw) % (2 * n)}
		for _, engine := range propertyEngines {
			sel := runEngine(t, engine, vectors, weights, copts, sopts)
			checkSelectionInvariants(t, engine, sel, n)
			again := runEngine(t, engine, vectors, weights, copts, sopts)
			if !reflect.DeepEqual(sel, again) {
				t.Errorf("%s: selection not deterministic", engine)
			}
		}
	})
}

// FuzzStratifiedAllocation stresses the stratified engine's two-phase
// allocation specifically: arbitrary budgets, pilot sizes, and both
// allocation rules must respect the floor (one draw per stratum), the
// per-stratum population caps, and the total budget clamp.
func FuzzStratifiedAllocation(f *testing.F) {
	f.Add(uint64(7), uint8(30), uint16(10), uint8(2), false)
	f.Add(uint64(8), uint8(60), uint16(60), uint8(5), true)
	f.Add(uint64(9), uint8(3), uint16(2), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, budgetRaw uint16, pilotRaw uint8, proportional bool) {
		n := 1 + int(nRaw)%64
		vectors, weights := synthPopulation(seed, n, 1+int(seed)%5, 4, 3.0)
		sel := runEngine(t, "stratified", vectors, weights,
			simpoint.Options{MaxK: 6, Seed: seed},
			simpoint.SelectorOpts{
				Budget:       int(budgetRaw) % (2 * n),
				Pilot:        int(pilotRaw) % 8,
				Proportional: proportional,
			})
		checkSelectionInvariants(t, "stratified", sel, n)
		k := len(sel.Strata)
		budget := int(budgetRaw) % (2 * n)
		if budget <= 0 {
			budget = 2 * k
		}
		if budget < k {
			budget = k
		}
		if budget > n {
			budget = n
		}
		if len(sel.Regions) != budget {
			t.Errorf("drew %d regions for clamped budget %d (k=%d, n=%d)", len(sel.Regions), budget, k, n)
		}
		for h, st := range sel.Strata {
			if st.Sampled < 1 {
				t.Errorf("stratum %d got %d draws, floor is 1", h, st.Sampled)
			}
		}
	})
}
