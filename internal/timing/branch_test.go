package timing

import (
	"math/rand"
	"testing"
)

// refPredictor is the hybrid predictor as it was first written — three
// tables of 2-bit counters, updated rule by rule — kept as the oracle the
// timing loop's inlined update, one lookup in step, is compared against.
type refPredictor struct {
	bimodal, global, chooser []uint8
	history                  uint64
}

func newRefPredictor() *refPredictor {
	bp := &refPredictor{
		bimodal: make([]uint8, 1<<bpBits),
		global:  make([]uint8, 1<<bpBits),
		chooser: make([]uint8, 1<<bpBits),
	}
	for i := range bp.bimodal {
		bp.bimodal[i] = takenInit
		bp.global[i] = takenInit
		bp.chooser[i] = takenInit // weakly prefer global
	}
	return bp
}

// Predict consumes a resolved branch (pc, taken outcome) and reports
// whether the prediction was correct, updating all state.
func (bp *refPredictor) Predict(pc uint64, taken bool) bool {
	bi := int(pc>>2) & bpMask
	gi := (int(pc>>2) ^ int(bp.history)) & bpMask

	predB := bp.bimodal[bi] >= 2
	predG := bp.global[gi] >= 2
	pred := predB
	if bp.chooser[bi] >= 2 {
		pred = predG
	}
	// Update the chooser toward whichever component was right.
	if predB != predG {
		if predG == taken {
			bp.chooser[bi] = satInc(bp.chooser[bi])
		} else {
			bp.chooser[bi] = satDec(bp.chooser[bi])
		}
	}
	if taken {
		bp.bimodal[bi] = satInc(bp.bimodal[bi])
		bp.global[gi] = satInc(bp.global[gi])
	} else {
		bp.bimodal[bi] = satDec(bp.bimodal[bi])
		bp.global[gi] = satDec(bp.global[gi])
	}
	bp.history <<= 1
	if taken {
		bp.history |= 1
	}
	bp.history &= bpMask
	return pred == taken
}

func satInc(v uint8) uint8 { return min(v+1, 3) }
func satDec(v uint8) uint8 { return max(v, 1) - 1 }

// sameTables reports whether bp's tables hold ref's counters.
func (ref *refPredictor) sameTables(bp *BranchPredictor) bool {
	for i := range ref.bimodal {
		if bp.local[i] != ref.chooser[i]<<5|ref.bimodal[i]<<3 || bp.global[i] != ref.global[i]<<1 {
			return false
		}
	}
	return bp.history&bpMask == ref.history
}

// TestPredictorMatchesOracle: on seeded branch streams — a few hot
// branches with biased, alternating and random outcomes, and cold ones
// all over the tables — the inlined update gives the oracle's verdict on
// every branch and leaves the oracle's counters in every table entry;
// after a Reset it starts again from the oracle's initial state.
func TestPredictorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	bp := NewBranchPredictor()
	for round := 0; round < 3; round++ {
		ref := newRefPredictor()
		if !ref.sameTables(bp) {
			t.Fatalf("round %d: initial tables differ from the oracle's", round)
		}
		hot := []uint64{0x400, 0x408, 0x1ff8, uint64(rng.Intn(1<<20)) * 8}
		for i := 0; i < 200000; i++ {
			var pc uint64
			var taken bool
			switch k := rng.Intn(8); {
			case k < 2:
				pc, taken = hot[0], i%17 != 0 // a loop branch
			case k < 4:
				pc, taken = hot[1], i%2 == 0 // alternating
			case k < 6:
				pc, taken = hot[2+rng.Intn(2)], rng.Intn(3) == 0
			default:
				pc, taken = uint64(rng.Intn(1<<16))*8, rng.Intn(2) == 0
			}
			if got, want := bp.update(pc, taken), ref.Predict(pc, taken); got != want {
				t.Fatalf("round %d branch %d (pc %#x, taken %v): update says %v, oracle %v", round, i, pc, taken, got, want)
			}
			if i%5000 == 0 && !ref.sameTables(bp) {
				t.Fatalf("round %d branch %d: tables differ from the oracle's", round, i)
			}
		}
		if !ref.sameTables(bp) {
			t.Fatalf("round %d: final tables differ from the oracle's", round)
		}
		bp.Reset()
	}
}

// missRate runs n resolved branches of pc through bp, outcome i of them
// taken(i), and returns the share it mispredicted.
func missRate(bp *BranchPredictor, pc uint64, n int, taken func(int) bool) float64 {
	misses := 0
	for i := 0; i < n; i++ {
		if !bp.update(pc, taken(i)) {
			misses++
		}
	}
	return float64(misses) / float64(n)
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	bp := NewBranchPredictor()
	// Strongly-biased loop branch: taken 99 times, not-taken once,
	// repeatedly. Must be predicted well after warmup.
	loop := func(i int) bool { return i%100 != 99 }
	missRate(bp, 0x400, 300, loop)
	if r := missRate(bp, 0x400, 500, loop); r > 0.05 {
		t.Errorf("biased branch miss rate %.3f, want <= 0.05", r)
	}
}

func TestBranchPredictorLearnsAlternating(t *testing.T) {
	bp := NewBranchPredictor()
	alt := func(i int) bool { return i%2 == 0 }
	missRate(bp, 0x800, 2000, alt)
	if r := missRate(bp, 0x800, 2000, alt); r > 0.05 {
		t.Errorf("alternating branch miss rate %.3f; global history should capture it", r)
	}
}
