package timing

// BranchPredictor is a Pentium-M-style hybrid predictor (paper Table I):
// a bimodal table and a gshare-indexed global table arbitrated by a
// per-branch chooser, all 2-bit saturating counters. A branch's bimodal
// counter and its chooser share one byte of local, so an update reads two
// bytes and looks their next values up in step.
type BranchPredictor struct {
	local   [1 << bpBits]uint8 // chooser<<5 | bimodal<<3, indexed by pc
	global  [1 << bpBits]uint8 // counter<<1, indexed by pc ^ history
	history uint64             // outcomes, newest in bit 0; the low bpBits are read

	// Lookups and Mispredict count detail-mode branches; the timing loop
	// counts them.
	Lookups    uint64
	Mispredict uint64
}

const (
	bpBits    = 12 // 4K-entry tables
	bpMask    = (1 << bpBits) - 1
	takenInit = 2 // weakly taken
)

// weakLocal and weakGlobal are the tables' initial state: every counter
// weakly taken, every chooser weakly preferring the global table.
var weakLocal, weakGlobal = func() (l, g [1 << bpBits]uint8) {
	for i := range l {
		l[i], g[i] = takenInit<<5|takenInit<<3, takenInit<<1
	}
	return l, g
}()

// step is the predictor's update rule, indexed by local | global | taken:
// the branch's next local and global bytes and, in bit 0, whether the
// prediction was right. Indexes stay below 128; the table has 256 entries
// so that a byte indexes it without a bounds check. The prediction is the global counter's if the
// chooser prefers it, else the bimodal's; the chooser moves toward
// whichever component was right when they disagree, both components
// toward the outcome.
var step = func() (s [256]uint8) {
	for i := 0; i < 128; i++ {
		t, g, b, c := i&1, i>>1&3, i>>3&3, i>>5&3
		pred := b >> 1
		if c >= 2 {
			pred = g >> 1
		}
		if b>>1 != g>>1 {
			c = toward(c, g>>1 == t)
		}
		b, g = toward(b, t == 1), toward(g, t == 1)
		s[i] = uint8(c<<5 | b<<3 | g<<1)
		if pred == t {
			s[i] |= 1
		}
	}
	return s
}()

// toward moves a 2-bit saturating counter one step up or down.
func toward(v int, up bool) int {
	if up {
		return min(v+1, 3)
	}
	return max(v-1, 0)
}

// NewBranchPredictor builds the predictor in its initial state.
func NewBranchPredictor() *BranchPredictor {
	return &BranchPredictor{local: weakLocal, global: weakGlobal}
}

// Reset returns the predictor to its initial state and zeroes statistics
// while reusing the table allocations.
func (bp *BranchPredictor) Reset() {
	bp.local, bp.global, bp.history = weakLocal, weakGlobal, 0
	bp.Lookups, bp.Mispredict = 0, 0
}

// update consumes a resolved branch (pc, taken outcome) and reports
// whether the prediction was right, updating all state. It inlines into
// the timing loop's branch case.
func (bp *BranchPredictor) update(pc uint64, taken bool) bool {
	l, g := &bp.local[pc>>2&bpMask], &bp.global[(pc>>2^bp.history)&bpMask]
	i := *l | *g
	if taken {
		i |= 1
	}
	x := step[i]
	*l, *g, bp.history = x&0x78, x&6, bp.history<<1|uint64(i&1)
	return x&1 != 0
}
