package timing

import (
	"fmt"
	"sync"

	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
)

// WarmupMode selects how region simulations warm microarchitectural state.
type WarmupMode int

// Warmup modes.
const (
	// WarmupFunctional fast-forwards from the application start while
	// updating caches and branch predictors functionally — the paper's
	// "perfect warmup" for binary-driven region simulation (III-F).
	WarmupFunctional WarmupMode = iota
	// WarmupNone starts the region cold (used by the warmup ablation).
	WarmupNone
)

func (w WarmupMode) String() string {
	if w == WarmupNone {
		return "none"
	}
	return "functional"
}

// Simulator runs timing simulations of one program under one system
// configuration. It holds only settings: each simulation takes an idle
// timing system for Cfg from the package pool and hands it back when it
// returns (see acquire), so concurrent simulations on one Simulator are
// safe as long as Trace is nil.
type Simulator struct {
	Cfg  Config
	Prog *isa.Program
	// Seed seeds the OS model for unconstrained runs.
	Seed uint64
	// Trace, when non-nil, collects an IPC-over-time trace (Figure 4).
	Trace *IPCTrace
	// MaxSteps bounds any single simulation (0 = default safety cap).
	MaxSteps uint64

	// fresh, set only by tests, builds every system with newSystem
	// instead of taking one from the pool: the reference a pooled run is
	// compared against.
	fresh bool
}

// New validates the pairing of configuration and program.
func New(cfg Config, prog *isa.Program) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cores < prog.NumThreads() {
		return nil, fmt.Errorf("timing: %d cores for %d threads", cfg.Cores, prog.NumThreads())
	}
	return &Simulator{Cfg: cfg, Prog: prog, Seed: 1, MaxSteps: 2_000_000_000}, nil
}

// systems keeps the process's idle timing systems, one sync.Pool per
// Config (the configuration is a system's shape: core count, cache
// geometry, predictor tables). A simulation pays the allocation wave
// (cache backing arrays, predictor tables, the directory) only when its
// configuration's pool is empty: while every system of that shape is in
// use, or after the garbage collector emptied the pool.
var systems sync.Map // Config -> *sync.Pool of *system

// acquire takes an idle system for the simulator's configuration from the
// pool and resets it onto m, or builds one; release hands it back.
func (s *Simulator) acquire(m *exec.Machine) *system {
	if !s.fresh {
		if sys, _ := idle(s.Cfg).Get().(*system); sys != nil {
			sys.reset(m)
			return sys
		}
	}
	return newSystem(s.Cfg, m)
}

// release returns sys to its configuration's pool, unbound from its
// machine so that an idle system keeps no program state alive.
func release(sys *system) {
	sys.m, sys.order = nil, nil
	idle(sys.cfg).Put(sys)
}

func idle(cfg Config) *sync.Pool {
	p, ok := systems.Load(cfg)
	if !ok {
		p, _ = systems.LoadOrStore(cfg, new(sync.Pool))
	}
	return p.(*sync.Pool)
}

// SimulateFull runs an unconstrained, fully detailed simulation of the
// whole program (the reference run sampling is compared against).
func (s *Simulator) SimulateFull() (*Stats, error) {
	return s.SimulateRegion(bbv.Marker{}, bbv.Marker{IsEnd: true}, WarmupFunctional)
}

// SimulateFullTap is SimulateFull with one (PC, count) tap: at is called
// once, with the statistics accumulated so far, at the block entry whose
// hit brings tap.PC's count to tap.Count, before that instruction is
// charged, and the run goes on to the end. That is exactly where a region
// run ending at the tap marker stops, so a region that starts from the
// program's initial state and sees the same OS answers measures what the
// tap reports. An end tap sees the full statistics (a separate snapshot);
// a tap that is never reached, or any other kind of marker, never calls at.
func (s *Simulator) SimulateFullTap(tap bbv.Marker, at func(*Stats)) (*Stats, error) {
	p := &run{src: exec.NewMachine(s.Prog, s.Seed), end: bbv.Marker{IsEnd: true}}
	if tap.IsEnd {
		p.atEnd = at
	} else if !tap.IsStart() && !tap.IsICount() {
		p.tap, p.at = tap, at
	}
	return s.simulate(p)
}

// SimulateRegion runs an unconstrained, binary-driven simulation of the
// region between two (PC, count) markers: the program executes from its
// initial state with the timing model deciding thread progress; detailed
// measurement is enabled between the markers (paper Section V-A1).
func (s *Simulator) SimulateRegion(start, end bbv.Marker, warm WarmupMode) (*Stats, error) {
	before := warmed
	if warm == WarmupNone {
		before = cold
	}
	return s.simulate(&run{src: exec.NewMachine(s.Prog, s.Seed), start: start, end: end, before: before})
}

// SimulateCheckpoint runs an unconstrained simulation of a region pinball
// starting from its snapshot rather than the program start — the
// ELFie-style executable-checkpoint path the paper cites for fast
// unconstrained region simulation (Section II, "How to simulate"). The
// warmup prefix captured in the pinball warms caches and predictors
// before the (PC, count)-delimited region is measured; the timing model,
// not the recorded schedule, decides thread progress.
func (s *Simulator) SimulateCheckpoint(pb *pinball.Pinball) (*Stats, error) {
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	m := exec.NewMachine(s.Prog, s.Seed)
	if err := m.Restore(pb.Start); err != nil {
		return nil, err
	}
	// Recorded syscall results are injected while they last; once the
	// unconstrained interleaving consumes them differently, the OS model
	// takes over.
	replay := exec.NewReplayOS(pb.Syscalls)
	replay.Fallback = exec.NewDefaultOS(s.Seed)
	m.OS = replay
	return s.simulate(&run{src: m, start: pb.Region.Start, end: pb.Region.End,
		startHits: pb.StartHitsAtSnapshot, endHits: pb.EndHitsAtSnapshot, before: warmed})
}

// SimulatePeriodic implements time-based periodic sampling (the paper's
// Section VI baseline, after Carlson et al.): every period retired
// instructions, a window of detail instructions is simulated in detail;
// the remainder fast-forwards with functional warming. The returned
// statistics carry the *extrapolated* cycle count (each window's cycles
// scaled by period/detail). The whole application is still visited
// functionally, which is precisely why this methodology's speedup is
// bounded by application length (Section II).
func (s *Simulator) SimulatePeriodic(detail, period uint64) (*Stats, error) {
	if detail == 0 || period == 0 || detail > period {
		return nil, fmt.Errorf("timing: invalid periodic sampling %d/%d", detail, period)
	}
	return s.simulate(&run{src: exec.NewMachine(s.Prog, s.Seed), end: bbv.Marker{IsEnd: true},
		before: timed, window: detail, period: period})
}

// SimulateConstrained replays a pinball under the timing model with the
// recorded thread interleaving enforced (constrained simulation). Shared
// lines may not be touched out of recorded order, which inserts the
// artificial stalls the paper warns about (Section V-A1): results can
// diverge badly from unconstrained behaviour, especially for
// low-synchronization applications.
func (s *Simulator) SimulateConstrained(pb *pinball.Pinball) (_ *Stats, err error) {
	defer exec.Recover(&err)
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	m := exec.NewMachine(s.Prog, 0)
	if err := m.Restore(pb.Start); err != nil {
		return nil, err
	}
	replay := exec.NewReplayOS(pb.Syscalls)
	m.OS = replay
	// The warm-up prefix is charged like the region, uncounted; the
	// region starts at the instruction after it.
	start := bbv.Marker{Count: pb.WarmupSteps + 1}
	i, tid, left := 0, 0, uint32(0) // the next entry; the current one's thread, steps left
	order := func() (int, bool) {
		for ; left == 0; i++ {
			if i == len(pb.Schedule) {
				return 0, false
			}
			tid, left = pb.Schedule[i].Tid, pb.Schedule[i].N
		}
		left--
		return tid, true
	}
	st, err := s.simulate(&run{src: m, start: start, end: bbv.Marker{IsEnd: true}, before: timed,
		bind: func(sys *system) { sys.follow(order, true) }})
	if err == nil && replay.Diverged {
		return nil, fmt.Errorf("timing: constrained replay exhausted the syscall injection log")
	}
	return st, err
}

// A charge is how the loop charges an instruction.
type charge uint8

const (
	measured charge = iota // in full, counted into the statistics
	timed                  // in full, uncounted: periodic gaps, a constrained warm-up
	warmed                 // one dispatch slot, microarchitectural state warmed
	cold                   // one dispatch slot, nothing warmed
)

const never = ^uint64(0) // a step no run reaches

// A run is one simulation: src retires its instructions (the system is
// bound to src if it is a machine, and bind finishes it); it measures from
// start to end (startHits and endHits rebase the counts of a machine that
// begins mid-program), charging what comes before start as before says,
// calls at at the PC tap and atEnd at the end, or measures window of every
// period instructions. The fields after period are the phase, which moves
// as the loop goes.
type run struct {
	src                retirer
	bind               func(*system)
	start, end         bbv.Marker
	startHits, endHits uint64
	before             charge
	tap                bbv.Marker
	at, atEnd          func(*Stats)
	window, period     uint64

	mode          charge
	detailBase    float64 // wall cycle where the measured window began
	tapHits, next uint64  // the loop calls step at step next and at marker PCs
	// Periodic: the step the window next opens or closes, where the open
	// one began, the cycles extrapolated so far.
	toggle                 uint64
	windowStart, estCycles float64
}

// A retirer executes one instruction of a thread: exec.Machine or a trace.
type retirer interface {
	Retire(tid int) (exec.Retired, []int)
}

// simulate is the one timing loop: it retires one instruction of the
// scheduler's pick, moves the phase where it can change, charges the
// instruction — written once, here, as one switch over the op classes
// that cost anything — and settles the thread.
func (s *Simulator) simulate(p *run) (_ *Stats, err error) {
	defer exec.Recover(&err)
	m, _ := p.src.(*exec.Machine)
	sys := s.acquire(m)
	defer release(sys)
	if p.bind != nil {
		p.bind(sys)
	}
	p.begin(sys)
	mode := p.mode
	trace := s.Trace
	maxSteps := s.MaxSteps
	if maxSteps == 0 {
		maxSteps = 2_000_000_000
	}

	var steps uint64
	for sys.alive > 0 {
		tid := sys.next()
		if tid < 0 {
			return nil, exec.ErrDeadlock
		}
		r, woken := p.src.Retire(tid)
		if r.Instr == nil { // a constrained replay that diverged
			return nil, fmt.Errorf("timing: scheduled thread %d could not step: it is %s", tid, m.Threads[tid].State)
		}
		steps++
		if steps > maxSteps {
			return nil, fmt.Errorf("timing: %w", exec.ErrMaxSteps)
		}
		if steps == p.next || r.BlockEntry && (r.Block.Addr == p.start.PC || r.Block.Addr == p.end.PC || r.Block.Addr == p.tap.PC) {
			if p.step(sys, steps, r) {
				return sys.stats(p.detailBase), nil
			}
			mode = p.mode
		}

		// The charge. Cycles accumulate even while fast-forwarding, so the
		// scheduler interleaves threads fairly. A warmed instruction updates
		// caches, directory, prefetcher and predictor as a measured one
		// does, without the stall arithmetic: warmed state is bit-identical.
		cycles := sys.slot
		if mode != cold {
			c := &sys.cores[tid]
			sys.clock++
			var ifetchCycles float64
			// Instruction fetch: charge on block entry when the line
			// misses L1I.
			if r.BlockEntry {
				if lvl := c.l1i.Access(r.Block.Addr*8, sys.clock); lvl > 1 && mode != warmed {
					ifetchCycles = sys.ifetch[lvl]
					cycles += ifetchCycles
				}
			}
			base := cycles
			var memCycles, syncCycles, computeCycles, branchCycles float64
			switch r.Instr.Op {
			case isa.OpILoad, isa.OpFLoad:
				lvl := c.l1d.Access(r.MemAddr, sys.clock)
				sys.noteFill(tid, r.MemAddr)
				if mode != warmed {
					memCycles = sys.memStall(tid, lvl)
				}
				sys.warmPrefetch(c, tid, r.MemAddr, lvl)
			case isa.OpIStore, isa.OpFStore:
				lvl := c.l1d.Access(r.MemAddr, sys.clock)
				sys.noteFill(tid, r.MemAddr)
				if mode != warmed {
					memCycles = float64(sys.memStall(tid, lvl) / 2) // store buffer
				}
				memCycles += sys.coherence(tid, r.MemAddr)
				sys.warmPrefetch(c, tid, r.MemAddr, lvl)
			case isa.OpAtomicAdd, isa.OpCmpXchg, isa.OpXchg:
				sys.constrainedOrderStall(tid, r)
				lvl := c.l1d.Access(r.MemAddr, sys.clock)
				sys.noteFill(tid, r.MemAddr)
				// Atomics serialize: full latency, no ROB hiding.
				syncCycles = sys.lat[lvl] + sys.atomic
				syncCycles += sys.coherence(tid, r.MemAddr)
			case isa.OpFutexWait:
				sys.constrainedOrderStall(tid, r)
				syncCycles = sys.futex
				if r.Blocked && mode == measured {
					sys.futexWaits++
				}
			case isa.OpFutexWake:
				sys.constrainedOrderStall(tid, r)
				syncCycles = sys.futex
			case isa.OpSyscall:
				syncCycles = sys.futex
			case isa.OpIDiv, isa.OpIRem, isa.OpFDiv:
				computeCycles = sys.div
			case isa.OpFSqrt:
				computeCycles = sys.sqrt
			case isa.OpPause:
				syncCycles = sys.pause
			case isa.OpBrCond:
				// Conditional branches consult the predictor;
				// unconditional transfers are free beyond the base cost.
				if !c.bp.Predict(r.Instr.Addr*8, r.Taken) {
					branchCycles = sys.mispredict
				}
			}
			if mode == warmed {
				cycles = sys.slot
			} else {
				cycles = base + memCycles + syncCycles + computeCycles + branchCycles
				if mode == measured {
					c.instrs++
					if !r.Block.Routine.Image.Sync {
						c.filtered++
					}
					c.stack.Base += base - ifetchCycles
					c.stack.Ifetch += ifetchCycles
					c.stack.Memory += memCycles
					c.stack.Sync += syncCycles
					c.stack.Compute += computeCycles
					c.stack.Branch += branchCycles
				}
			}
		}
		sys.cycle[tid] += cycles

		sys.settle(tid, woken)
		if mode == measured && trace != nil {
			trace.maybeSample(sys.totalInstrs(), sys.wallCycle())
		}
	}
	return p.result(sys)
}

// begin sets the phase for the first instruction.
func (p *run) begin(sys *system) {
	p.mode = p.before
	if p.start.IsStart() || (!p.start.IsICount() && !p.start.IsEnd && p.start.Count <= p.startHits) {
		p.mode = measured
	}
	sys.setDetail(p.mode == measured)
	if p.end.IsEnd {
		p.end.PC = 0 // no block sits at address 0: a PC of 0 watches nothing
	}
	p.toggle = never
	if p.window < p.period { // a window as long as the period never closes
		p.toggle = p.window
	}
	p.schedule(0)
}

// step moves the phase at an instruction the loop flagged, before it is
// charged, so the start marker's own instruction is measured and the end
// marker's is not, as the profiler attributes the boundary instruction to
// the following region; it reports whether the run ends before it. Raw
// instruction-count markers (the naive baseline's) fire on the global
// retired count instead of a PC.
func (p *run) step(sys *system, steps uint64, r exec.Retired) bool {
	if steps == p.toggle {
		if p.mode == measured {
			// Close the window and extrapolate it over the period.
			p.estCycles += (sys.wallCycle() - p.windowStart) * float64(p.period) / float64(p.window)
			p.mode, p.toggle = timed, p.toggle+p.period-p.window
		} else {
			p.windowStart = sys.wallCycle()
			p.mode, p.toggle = measured, p.toggle+p.window
		}
		sys.setDetail(p.mode == measured)
	}
	if p.start.IsICount() && p.mode != measured && steps >= p.start.Count {
		p.measure(sys)
	}
	if p.end.IsICount() && p.mode == measured && steps >= p.end.Count {
		return true
	}
	if r.BlockEntry {
		// Detail begins and ends without resetting core clocks: the
		// warmup phase develops the natural thread stagger of the
		// running system, and measuring wall-clock deltas over it makes
		// isolated regions tile the continuous run exactly (resetting
		// clocks would force every region to re-pay the
		// align-to-steady-state transition).
		if r.Block.Addr == p.start.PC {
			p.startHits++
			if p.mode != measured && p.startHits >= p.start.Count {
				p.measure(sys)
			}
		}
		if r.Block.Addr == p.end.PC {
			p.endHits++
			if p.mode == measured && p.endHits >= p.end.Count {
				return true
			}
		}
		if r.Block.Addr == p.tap.PC {
			// The end-marker check above, for a run that goes on.
			p.tapHits++
			if p.mode == measured && p.tapHits >= p.tap.Count {
				p.at(sys.stats(p.detailBase))
				p.tap.PC = 0
			}
		}
	}
	p.schedule(steps)
	return false
}

// measure starts the measured window.
func (p *run) measure(sys *system) {
	p.mode = measured
	sys.setDetail(true)
	p.detailBase = sys.wallCycle()
}

// schedule sets next to the first step after steps at which a periodic
// toggle or a live instruction-count marker can fire.
func (p *run) schedule(steps uint64) {
	p.next = p.toggle
	if p.start.IsICount() && p.mode != measured {
		p.next = min(p.next, max(p.start.Count, steps+1))
	}
	if p.end.IsICount() && p.mode == measured {
		p.next = min(p.next, max(p.end.Count, steps+1))
	}
}

// result is the run's statistics when no instruction is left.
func (p *run) result(sys *system) (*Stats, error) {
	if p.period != 0 {
		if p.mode == measured {
			p.estCycles += (sys.wallCycle() - p.windowStart) * float64(p.period) / float64(p.window)
		}
		st := sys.stats(0)
		st.Cycles = p.estCycles
		return st, nil
	}
	if p.mode != measured {
		if p.start.IsICount() {
			// Raw instruction-count boundaries are not stable across
			// thread interleavings (Section II): under a different
			// schedule the program can retire fewer instructions (e.g.
			// fewer spin iterations) and never reach the recorded
			// count. The naive baseline then measures nothing for this
			// region — one of the reasons its extrapolation degrades.
			return sys.stats(p.detailBase), nil
		}
		return nil, fmt.Errorf("timing: start marker %v never reached", p.start)
	}
	if !p.end.IsEnd && !p.end.IsICount() && p.endHits < p.end.Count {
		return nil, fmt.Errorf("timing: end marker %v never reached (%d/%d hits)", p.end, p.endHits, p.end.Count)
	}
	if p.atEnd != nil {
		p.atEnd(sys.stats(p.detailBase))
	}
	return sys.stats(p.detailBase), nil
}
