package timing

import (
	"fmt"
	"math"
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

// A run is one simulation: the system is bound to machine src, and bind
// finishes the binding; it measures from start to end (startHits and
// endHits rebase the counts of a machine that begins mid-program),
// charging what comes before start as before says, calls at at the PC tap
// and atEnd at the end, or measures window of every period instructions.
// The fields after period are the phase, which moves as the loop goes.
type run struct {
	src                *exec.Machine
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

// simulate is the one timing loop, and the instruction tier: it fetches
// the scheduler's pick's next instruction, moves the phase where it can
// change, and then executes and charges the instruction in one switch
// over its op. Each case adds its own stall to its own CPI-stack
// component. The ops that touch the call stack, futex queues or OS run
// out of line (exec's Rare, charged by system.rare) and always settle the
// thread; the rest hand it off inline.
func (s *Simulator) simulate(p *run) (_ *Stats, err error) {
	defer exec.Recover(&err)
	m := p.src
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
		t := m.Threads[tid]
		if t.State != exec.StateRunning { // a recorded order that diverged
			return nil, fmt.Errorf("timing: scheduled thread %d could not step: it is %s", tid, t.State)
		}
		steps++
		if steps > maxSteps {
			return nil, fmt.Errorf("timing: %w", exec.ErrMaxSteps)
		}
		blk, idx := m.Fetch(t)
		if steps == p.next || idx == 0 && (blk.Addr == p.start.PC || blk.Addr == p.end.PC || blk.Addr == p.tap.PC) {
			if p.step(sys, steps, blk.Addr, idx == 0) {
				return sys.stats(p.detailBase), nil
			}
			mode = p.mode
		}
		in := &blk.Instrs[idx]
		c := &sys.cores[tid]

		// The base charge and the fetch. Cycles accumulate even while
		// fast-forwarding, so the scheduler interleaves threads fairly. A
		// warmed instruction updates caches, directory, prefetcher and
		// predictor as a measured one does, without the stall
		// arithmetic: warmed state is bit-identical. A cold one costs its
		// dispatch slot alone. Each cache access first checks for a
		// repeat of the cache's last line, which hits at level 1.
		cycles, ifetch := sys.slot, 0.0
		if mode != cold {
			sys.clock++
			if a := blk.Addr * 8; idx == 0 && !c.l1i.repeat(a, sys.clock) {
				if lvl := c.l1i.Access(a, sys.clock); lvl > 1 && mode != warmed {
					ifetch = sys.ifetch[lvl]
					cycles += ifetch
					if mode == measured {
						c.stack.Ifetch += ifetch
					}
				}
			}
		}
		if mode == measured {
			c.instrs++
			if !blk.Routine.Image.Sync {
				c.filtered++
			}
			c.stack.Base += cycles - ifetch
		}

		// Execute and charge. A stall counts (mode <= timed) only for an
		// instruction charged in full.
		switch in.Op {
		case isa.OpNop:
			t.Advance()
		case isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIAnd, isa.OpIOr, isa.OpIXor, isa.OpIShl, isa.OpIShr:
			b := t.R[in.B]
			if in.UseImm {
				b = in.Imm
			}
			t.R[in.Dst] = exec.IntALU(in.Op, t.R[in.A], b)
			t.Advance()
		case isa.OpIMov:
			if in.UseImm {
				t.R[in.Dst] = in.Imm
			} else {
				t.R[in.Dst] = t.R[in.A]
			}
			t.Advance()
		case isa.OpFAdd, isa.OpFSub, isa.OpFMul:
			t.F[in.Dst] = exec.FloatALU(in.Op, t.F[in.A], t.F[in.B])
			t.Advance()
		case isa.OpFMov:
			if in.UseImm {
				t.F[in.Dst] = in.FImm
			} else {
				t.F[in.Dst] = t.F[in.A]
			}
			t.Advance()
		case isa.OpFMA:
			t.F[in.Dst] = float64(t.F[in.A]*t.F[in.B]) + t.F[in.Dst]
			t.Advance()
		case isa.OpFCmp:
			if in.Cond.EvalFloat(t.F[in.A], t.F[in.B]) {
				t.R[in.Dst] = 1
			} else {
				t.R[in.Dst] = 0
			}
			t.Advance()
		case isa.OpICvtF:
			t.F[in.Dst] = float64(t.R[in.A])
			t.Advance()
		case isa.OpFCvtI:
			t.R[in.Dst] = exec.FCvtI(t.F[in.A])
			t.Advance()

		case isa.OpIDiv, isa.OpIRem:
			b := t.R[in.B]
			if in.UseImm {
				b = in.Imm
			}
			t.R[in.Dst] = exec.IntALU(in.Op, t.R[in.A], b)
			t.Advance()
			if mode <= timed {
				cycles += sys.div
				if mode == measured {
					c.stack.Compute += sys.div
				}
			}
		case isa.OpFDiv:
			t.F[in.Dst] = exec.FloatALU(in.Op, t.F[in.A], t.F[in.B])
			t.Advance()
			if mode <= timed {
				cycles += sys.div
				if mode == measured {
					c.stack.Compute += sys.div
				}
			}
		case isa.OpFSqrt:
			t.F[in.Dst] = math.Sqrt(t.F[in.A])
			t.Advance()
			if mode <= timed {
				cycles += sys.sqrt
				if mode == measured {
					c.stack.Compute += sys.sqrt
				}
			}
		case isa.OpPause:
			t.Advance()
			if mode <= timed {
				cycles += sys.pause
				if mode == measured {
					c.stack.Sync += sys.pause
				}
			}

		case isa.OpILoad, isa.OpFLoad:
			a := m.Addr(t, in)
			if in.Op == isa.OpILoad {
				t.R[in.Dst] = int64(m.Mem[a])
			} else {
				t.F[in.Dst] = math.Float64frombits(m.Mem[a])
			}
			t.Advance()
			if mode != cold {
				a *= 8
				lvl := 1
				if !c.l1d.repeat(a, sys.clock) {
					lvl = c.l1d.Access(a, sys.clock)
				}
				sys.noteFill(tid, a)
				if mode != warmed {
					x := sys.memStall(tid, lvl)
					cycles += x
					if mode == measured {
						c.stack.Memory += x
					}
				}
				if lvl > 1 {
					sys.warmPrefetch(c, tid, a)
				}
			}
		case isa.OpIStore, isa.OpFStore:
			a := m.Addr(t, in)
			if in.Op == isa.OpIStore {
				m.Mem[a] = uint64(t.R[in.B])
			} else {
				m.Mem[a] = math.Float64bits(t.F[in.B])
			}
			t.Advance()
			if mode != cold {
				a *= 8
				lvl := 1
				if !c.l1d.repeat(a, sys.clock) {
					lvl = c.l1d.Access(a, sys.clock)
				}
				sys.noteFill(tid, a)
				var x float64
				if mode != warmed {
					x = float64(sys.memStall(tid, lvl) / 2) // store buffer
				}
				if sys.shared(tid, a) {
					x += sys.coherence(tid, a)
				}
				if lvl > 1 {
					sys.warmPrefetch(c, tid, a)
				}
				if mode <= timed {
					cycles += x
					if mode == measured {
						c.stack.Memory += x
					}
				}
			}

		case isa.OpBr:
			t.Jump(in.Target)
		case isa.OpBrCond:
			// Conditional branches consult the predictor; unconditional
			// transfers are free beyond the base cost.
			b := t.R[in.B]
			if in.UseImm {
				b = in.Imm
			}
			taken := in.Cond.EvalInt(t.R[in.A], b)
			next := in.Else
			if taken {
				next = in.Target
			}
			t.Jump(next)
			if mode != cold && !c.bp.Predict(in.Addr*8, taken) && mode != warmed {
				cycles += sys.mispredict
				if mode == measured {
					c.stack.Branch += sys.mispredict
				}
			}

		default:
			var addr uint64
			addr, sys.woken = m.Rare(t, in, sys.woken[:0])
			sys.cycle[tid] += sys.rare(c, tid, in.Op, addr, t.State == exec.StateBlocked, mode, cycles)
			sys.settle(tid, sys.woken)
			if mode == measured && trace != nil {
				trace.maybeSample(sys.totalInstrs(), sys.wallCycle())
			}
			continue
		}
		sys.cycle[tid] += cycles
		if sys.order != nil || !sys.staysFirst(tid) && !sys.goesLast(tid) {
			sys.settle(tid, nil)
		}
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
func (p *run) step(sys *system, steps, addr uint64, entry bool) bool {
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
	if entry {
		// Detail begins and ends without resetting core clocks: the
		// warmup phase develops the natural thread stagger of the
		// running system, and measuring wall-clock deltas over it makes
		// isolated regions tile the continuous run exactly (resetting
		// clocks would force every region to re-pay the
		// align-to-steady-state transition).
		if addr == p.start.PC {
			p.startHits++
			if p.mode != measured && p.startHits >= p.start.Count {
				p.measure(sys)
			}
		}
		if addr == p.end.PC {
			p.endHits++
			if p.mode == measured && p.endHits >= p.end.Count {
				return true
			}
		}
		if addr == p.tap.PC {
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
