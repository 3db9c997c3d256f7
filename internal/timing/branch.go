package timing

// BranchPredictor is a Pentium-M-style hybrid predictor (paper Table I):
// a bimodal table and a gshare-indexed global table arbitrated by a
// per-branch chooser, all 2-bit saturating counters.
type BranchPredictor struct {
	bimodal []uint8
	global  []uint8
	chooser []uint8
	history uint64

	Lookups    uint64
	Mispredict uint64
	warming    bool
}

const (
	bpBits    = 12 // 4K-entry tables
	bpMask    = (1 << bpBits) - 1
	histMask  = bpMask
	takenInit = 2 // weakly taken
)

// NewBranchPredictor builds the predictor with weakly-taken initial state.
func NewBranchPredictor() *BranchPredictor {
	bp := &BranchPredictor{
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

// Reset returns the predictor to its weakly-taken initial state and
// zeroes statistics while reusing the table allocations.
func (bp *BranchPredictor) Reset() {
	for i := range bp.bimodal {
		bp.bimodal[i] = takenInit
		bp.global[i] = takenInit
		bp.chooser[i] = takenInit
	}
	bp.history = 0
	bp.Lookups, bp.Mispredict = 0, 0
	bp.warming = false
}

// SetWarming toggles warming mode (state updates without statistics).
func (bp *BranchPredictor) SetWarming(w bool) { bp.warming = w }

// Predict consumes a resolved branch (pc, taken outcome) and reports
// whether the prediction was correct, updating all state.
func (bp *BranchPredictor) Predict(pc uint64, taken bool) bool {
	bi := int(pc>>2) & bpMask
	gi := (int(pc>>2) ^ int(bp.history)) & bpMask

	predB := bp.bimodal[bi] >= 2
	predG := bp.global[gi] >= 2
	useGlobal := bp.chooser[bi] >= 2
	pred := predB
	if useGlobal {
		pred = predG
	}
	correct := pred == taken
	if !bp.warming {
		bp.Lookups++
		if !correct {
			bp.Mispredict++
		}
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
	bp.history = ((bp.history << 1) | b2u(taken)) & histMask
	return correct
}

func satInc(v uint8) uint8 {
	if v < 3 {
		return v + 1
	}
	return v
}

func satDec(v uint8) uint8 {
	if v > 0 {
		return v - 1
	}
	return v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
