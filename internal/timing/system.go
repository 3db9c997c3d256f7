package timing

import (
	"math"
	"math/bits"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// coreState holds one core's timing state, except its cycle count, which
// the scheduler compares across cores and so lives in system.cycle.
type coreState struct {
	l1i, l1d, l2 *Cache
	bp           *BranchPredictor
	instrs       uint64 // retired in detail mode
	filtered     uint64
	lastMissEnd  float64 // completion time of the most recent long miss
	stack        CPIStack
}

// system wires a functional machine to the timing model. One thread is
// pinned per core (the paper simulates N-threaded applications on N-core
// systems).
type system struct {
	cfg    Config
	m      *exec.Machine
	cores  []coreState
	cycle  []float64 // per-core cycle count
	l3     *Cache
	dir    []uint64 // cache line -> bitmask of cores holding it; grown on demand
	clock  uint64   // LRU clock: total accesses
	detail bool
	charges

	// Min-cycle scheduler: a ring of the runnable threads sorted by
	// (cycle, tid), runq[head] first, so the pick and the thread that
	// bounds how long it stays the pick are the first two. settle keeps
	// it sorted from the stepped thread's state and the threads it woke;
	// alive counts the threads that have not halted. flat says the ring
	// is one round in lockstep (see lockstep); it is set only while every
	// instruction costs one slot. The ring has 256 places, so a uint8
	// position wraps without a modulo; it holds at most MaxCores threads.
	runq     [1 << 8]int
	head     uint8
	runnable uint8
	alive    int
	flat     bool

	// A recorded order (follow) and constrained shared-order enforcement.
	order    func() (tid int, ok bool)
	ordered  bool
	lineLast map[uint64]lineAccess

	coherenceInv uint64
	futexWaits   uint64
	woken        []int // Rare's buffer, reused by every wake
}

type lineAccess struct {
	tid   int
	cycle float64
}

// charges holds every per-instruction charge that depends only on the
// configuration. Each is computed once per system by the expression the
// per-instruction code used to evaluate, on the same operands, so the
// hoisted value has the same bits as the recomputed one.
type charges struct {
	slot   float64    // one dispatch slot: the base cost of an instruction
	flatUp float64    // lockstep's bound on the front's cycle count
	lat    [5]float64 // data latency by hit level (1 = L1 ... 4 = memory)
	ifetch [5]float64 // front-end penalty of an instruction fetch by hit level
	stall  [5]float64 // lat beyond the hide window
	mlp    [5]float64 // stall when it overlaps an outstanding miss

	div, sqrt, atomic, futex, pause   float64
	mispredict, coherenceLat, wakeLat float64
}

func newCharges(cfg Config) charges {
	ch := charges{
		slot:         1.0 / float64(cfg.Dispatch),
		div:          float64(cfg.DivCycles),
		sqrt:         float64(cfg.SqrtCycles),
		atomic:       float64(cfg.AtomicCycles),
		futex:        float64(cfg.FutexCycles),
		pause:        float64(cfg.PauseCycles),
		mispredict:   float64(cfg.MispredictPenalty),
		coherenceLat: float64(cfg.CoherenceCycles),
		wakeLat:      float64(cfg.WakeCycles),
	}
	if cfg.Kind == OOO {
		ch.div /= 2
		ch.sqrt /= 2
	}
	if cfg.Dispatch&(cfg.Dispatch-1) == 0 {
		ch.flatUp = math.Ldexp(ch.slot, 51)
	}
	hide := cfg.hideWindow()
	for lvl := range ch.lat {
		lat := cfg.dLatency(lvl)
		ch.lat[lvl] = lat
		ch.ifetch[lvl] = lat
		if cfg.Kind == OOO {
			ch.ifetch[lvl] /= 2 // decoupled front end hides part of it
		}
		ch.stall[lvl] = lat - hide
		ch.mlp[lvl] = ch.stall[lvl] / cfg.MLP
	}
	return ch
}

func newSystem(cfg Config, m *exec.Machine) *system {
	s := &system{
		cfg:      cfg,
		cores:    make([]coreState, cfg.Cores),
		cycle:    make([]float64, cfg.Cores),
		lineLast: make(map[uint64]lineAccess),
		charges:  newCharges(cfg),
	}
	s.l3 = NewCache(cfg.L3, nil)
	for i := range s.cores {
		l2 := NewCache(cfg.L2, s.l3)
		s.cores[i] = coreState{
			l1i: NewCache(cfg.L1I, l2),
			l1d: NewCache(cfg.L1D, l2),
			l2:  l2,
			bp:  NewBranchPredictor(),
		}
	}
	s.bind(m)
	return s
}

// bind attaches the functional machine: the scheduler starts from its
// thread states, and the directory covers every line of its memory so
// that only prefetches past the last line ever grow it. Every core's cycle
// count must be zero, which makes ascending thread IDs the sorted order
// and the ring flat.
func (s *system) bind(m *exec.Machine) {
	s.m = m
	s.order, s.ordered, s.flat = nil, false, true
	s.head, s.runnable, s.alive = 0, 0, 0
	for tid, t := range m.Threads {
		if t.State != exec.StateHalted {
			s.alive++
		}
		if t.State == exec.StateRunning {
			s.runq[s.runnable] = tid
			s.runnable++
		}
	}
	if lines := (len(m.Mem) + 7) / 8; lines > len(s.dir) { // eight words to a line
		s.dir = append(s.dir, make([]uint64, lines-len(s.dir))...)
	}
}

// reset returns the system to its newSystem state while reusing every
// allocation — cache backing arrays, predictor tables, core states, and
// the directory — and rebinds the functional machine. Only capacity
// carries over; every bit of observable state is cleared, and the
// identity tests pin reset-then-simulate byte-identical to fresh
// construction.
func (s *system) reset(m *exec.Machine) {
	for i := range s.cores {
		c := &s.cores[i]
		c.l1i.Reset()
		c.l1d.Reset()
		c.l2.Reset()
		c.bp.Reset()
		c.instrs, c.filtered = 0, 0
		c.lastMissEnd = 0
		c.stack = CPIStack{}
	}
	clear(s.cycle)
	s.l3.Reset()
	clear(s.dir)
	s.clock = 0
	s.detail = false
	clear(s.lineLast)
	s.coherenceInv = 0
	s.futexWaits = 0
	s.bind(m)
}

// setDetail flips between functional-warming and detailed mode.
func (s *system) setDetail(detail bool) {
	s.detail = detail
	for i := range s.cores {
		c := &s.cores[i]
		c.l1i.SetWarming(!detail)
		c.l1d.SetWarming(!detail)
		c.l2.SetWarming(!detail)
	}
	s.l3.SetWarming(!detail)
}

// dLatency maps the hit level of a data access (1=L1D) to total latency.
func (cfg Config) dLatency(level int) float64 {
	switch level {
	case 1:
		return float64(cfg.L1D.Latency)
	case 2:
		return float64(cfg.L2.Latency)
	case 3:
		return float64(cfg.L3.Latency)
	default:
		return float64(cfg.L3.Latency + cfg.MemLatency)
	}
}

// hideWindow is how many cycles of memory latency the core hides.
func (cfg Config) hideWindow() float64 {
	if cfg.Kind == OOO {
		return float64(cfg.ROB) / float64(2*cfg.Dispatch)
	}
	return 2
}

// memStall charges a load-class stall, for an access that hit at level
// lvl, with MLP overlap.
func (s *system) memStall(tid, lvl int) float64 {
	stall := s.stall[lvl]
	if stall <= 0 {
		return 0
	}
	c := &s.cores[tid]
	lat := s.lat[lvl]
	now := s.cycle[tid]
	if now < c.lastMissEnd {
		// Overlaps an outstanding miss: only the serialization share.
		if now+lat > c.lastMissEnd {
			c.lastMissEnd = now + lat
		}
		return s.mlp[lvl]
	}
	c.lastMissEnd = now + lat
	return stall
}

// warmPrefetch replays the next-line prefetcher's fills for a data access
// that missed L1D; the loop calls it only for one.
func (s *system) warmPrefetch(c *coreState, tid int, addr uint64) {
	for n := 1; n <= s.cfg.PrefetchNextLines; n++ {
		pf := addr + uint64(n*64)
		c.l1d.FillQuiet(pf, s.clock)
		s.noteFill(tid, pf)
	}
}

// noteFill records private-cache residency for the coherence directory.
func (s *system) noteFill(tid int, addr uint64) {
	line := addr >> 6
	if line >= uint64(len(s.dir)) {
		// A prefetch past the last line of memory.
		s.dir = append(s.dir, make([]uint64, line+1-uint64(len(s.dir)))...)
	}
	s.dir[line] |= 1 << uint(tid)
}

// shared reports whether the directory shows a core other than tid
// holding the line of addr. The writer's own fill (noteFill) comes first,
// so the line is in range.
func (s *system) shared(tid int, addr uint64) bool {
	return s.dir[addr>>6]&^(1<<uint(tid)) != 0
}

// coherence invalidates remote copies on a write and charges the penalty;
// the loop calls it only when the line is shared.
func (s *system) coherence(tid int, addr uint64) float64 {
	line := addr >> 6
	others := s.dir[line] &^ (1 << uint(tid))
	for ; others != 0; others &= others - 1 {
		t := bits.TrailingZeros64(others)
		s.cores[t].l1d.Invalidate(addr)
		s.cores[t].l2.Invalidate(addr)
	}
	s.dir[line] = 1 << uint(tid)
	if s.detail {
		s.coherenceInv++
	}
	return s.coherenceLat
}

// constrainedOrderStall enforces the recorded shared-memory dependency
// order: a synchronization access (atomic or futex word) to a line last
// touched by another thread may not begin before that access completed —
// the artificial delay PinPlay replay inserts to reproduce the recorded
// interleaving. Plain loads/stores are not constrained (the race log
// covers logged dependencies, which concentrate on sync variables), yet
// the recorded *schedule* still forces every thread to the recorded
// pace, which is what makes constrained timing misleading for
// applications whose natural thread progress differs from the recording
// (Section V-A1: worst for low-synchronization apps like 657.xz_s.2).
// rare calls it for those accesses; only a constrained replay stalls.
func (s *system) constrainedOrderStall(tid int, addr uint64) {
	if !s.ordered {
		return
	}
	line := addr >> 6
	if last, ok := s.lineLast[line]; ok && last.tid != tid && last.cycle > s.cycle[tid] {
		s.cycle[tid] = last.cycle
	}
	s.lineLast[line] = lineAccess{tid: tid, cycle: s.cycle[tid]}
}

// rare charges an instruction exec's Rare executed, whose charge so far
// (its slot and fetch) is cycles, and returns its whole charge. An atomic
// serializes: the full latency of its access, no ROB hiding. A futex op or
// a syscall costs the futex latency; a call, return or halt nothing more.
// All of it is synchronization in the CPI stack.
func (s *system) rare(c *coreState, tid int, op isa.Op, addr uint64, blocked bool, mode charge, cycles float64) float64 {
	if mode == cold {
		return cycles
	}
	var x float64
	switch op {
	case isa.OpAtomicAdd, isa.OpCmpXchg, isa.OpXchg:
		s.constrainedOrderStall(tid, addr)
		lvl := 1
		if !c.l1d.repeat(addr, s.clock) {
			lvl = c.l1d.Access(addr, s.clock)
		}
		s.noteFill(tid, addr)
		x = s.lat[lvl] + s.atomic
		if s.shared(tid, addr) {
			x += s.coherence(tid, addr)
		}
	case isa.OpFutexWait:
		s.constrainedOrderStall(tid, addr)
		x = s.futex
		if blocked && mode == measured {
			s.futexWaits++
		}
	case isa.OpFutexWake:
		s.constrainedOrderStall(tid, addr)
		x = s.futex
	case isa.OpSyscall:
		x = s.futex
	}
	if mode <= timed {
		cycles += x
		if mode == measured {
			c.stack.Sync += x
		}
	}
	return cycles
}

// wake propagates wake-up timing: threads woken by tid resume no earlier
// than tid's cycle count plus the wake latency.
func (s *system) wake(tid int, woken []int) {
	resume := s.cycle[tid] + s.wakeLat
	for _, w := range woken {
		if resume > s.cycle[w] {
			s.cycle[w] = resume
		}
	}
}

// before reports whether thread tid, at cycle count c, is scheduled before
// thread o: the smaller cycle count first, ties broken by thread ID.
func (s *system) before(c float64, tid, o int) bool {
	oc := s.cycle[o]
	return c < oc || (c == oc && tid < o)
}

// staysFirst reports whether tid, the scheduled thread, which the step
// left running and which woke nobody, still precedes the second thread:
// then nothing moves, as no other core's cycle count changed.
func (s *system) staysFirst(tid int) bool {
	return s.runnable < 2 || s.before(s.cycle[tid], tid, s.runq[s.head+1])
}

// insert moves tid, a scheduled thread that still runs but no longer
// precedes the second, from the front of the ring to its sorted place,
// found from the back: in lockstep, the thread that just stepped goes
// last. settle and the loop share it; it inlines into the loop.
func (s *system) insert(tid int) {
	c := s.cycle[tid]
	s.head++
	i := s.head + s.runnable - 1
	for ; i != s.head && s.before(c, tid, s.runq[i-1]); i-- {
		s.runq[i] = s.runq[i-1]
	}
	s.runq[i] = tid
}

// rotate moves tid, the front, to the back of a flat ring: the hand-off
// of a thread that was charged one slot.
func (s *system) rotate(tid int) {
	s.runq[s.head+s.runnable] = tid
	s.head++
}

// lockstep reports whether the ring is one round in lockstep: its front
// and back share a cycle count, or the back is one slot past the front
// with a lower thread ID. While every instruction costs one slot, every
// count is a whole number of slots if the slot is a power of two (from
// zero, slots and whole-cycle wake latencies), so the ring then holds the
// threads at the front's count and after them the threads one slot past
// it, each group in thread order and the second of lower IDs. Each thread
// that steps then goes last, and the ring stays so until a thread wakes.
// flatUp keeps the front below 2^51 slots, where adding a slot stays
// exact for 2^52 more rounds; for any other slot it is zero.
func (s *system) lockstep() bool {
	f, b := s.runq[s.head], s.runq[s.head+s.runnable-1]
	cf, cb := s.cycle[f], s.cycle[b]
	return cf < s.flatUp && (cb == cf || cb == cf+s.slot && b < f)
}

// next returns the runnable thread whose core has the smallest cycle
// count (ties broken by thread ID), or -1 if none can run.
func (s *system) next() int {
	if s.runnable == 0 {
		return -1
	}
	return s.runq[s.head]
}

// follow makes order the scheduler: the ring holds just the thread it
// names next. ordered turns on constrainedOrderStall.
func (s *system) follow(order func() (tid int, ok bool), ordered bool) {
	s.order, s.ordered, s.head, s.flat = order, ordered, 0, false
	s.advance()
}

func (s *system) advance() {
	tid, ok := s.order()
	s.runq[s.head], s.runnable, s.alive = tid, 0, 0
	if ok {
		s.runnable, s.alive = 1, 1
	}
}

// settle finishes the step of the scheduled thread (tid is next's pick)
// once its cycles are charged. While tid still runs and still precedes
// the second thread, nothing moves; if it runs on behind, it is
// inserted; if the step parked or halted it, it leaves the ring for good,
// which keeps a flat ring flat. Threads it woke are timed and then enter
// the ring, which is then no longer flat; under a recorded order the
// order names the next thread.
func (s *system) settle(tid int, woken []int) {
	if s.order != nil {
		s.wake(tid, woken)
		s.advance()
		return
	}
	if st := s.m.Threads[tid].State; st != exec.StateRunning {
		s.head++
		s.runnable--
		if st == exec.StateHalted {
			s.alive--
		}
	} else if !s.staysFirst(tid) {
		s.insert(tid)
	}
	if len(woken) > 0 {
		s.flat = false
		s.wake(tid, woken)
		for _, w := range woken {
			s.enter(w)
		}
	}
}

// enter makes thread w runnable: it goes to the front of the ring and
// settles from there like a thread that just stepped.
func (s *system) enter(w int) {
	s.head--
	s.runq[s.head] = w
	s.runnable++
	s.settle(w, nil)
}

// totalInstrs returns instructions retired in detail mode.
func (s *system) totalInstrs() uint64 {
	var n uint64
	for i := range s.cores {
		n += s.cores[i].instrs
	}
	return n
}

// wallCycle is the simulated wall clock: the maximum core cycle.
func (s *system) wallCycle() float64 {
	var w float64
	for _, c := range s.cycle {
		if c > w {
			w = c
		}
	}
	return w
}

// stats snapshots the counters into a Stats value. baseCycles is the wall
// cycle at the start of the detailed window.
func (s *system) stats(baseCycles float64) *Stats {
	st := &Stats{Config: s.cfg}
	st.Cycles = s.wallCycle() - baseCycles
	if st.Cycles < 0 {
		st.Cycles = 0
	}
	for i := range s.cores {
		c := &s.cores[i]
		st.CoreInstr = append(st.CoreInstr, c.instrs)
		st.Instructions += c.instrs
		st.FilteredInstructions += c.filtered
		st.Stack.Add(c.stack)
		st.Branches += c.bp.Lookups
		st.BranchMisses += c.bp.Mispredict
		st.L1IAccesses += c.l1i.Accesses
		st.L1IMisses += c.l1i.Misses
		st.L1DAccesses += c.l1d.Accesses
		st.L1DMisses += c.l1d.Misses
		st.L2Accesses += c.l2.Accesses
		st.L2Misses += c.l2.Misses
	}
	st.L3Accesses = s.l3.Accesses
	st.L3Misses = s.l3.Misses
	st.CoherenceInvalidations = s.coherenceInv
	st.FutexWaits = s.futexWaits
	return st
}
