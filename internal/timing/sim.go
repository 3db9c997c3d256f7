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
	sys.m = nil
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
	m := exec.NewMachine(s.Prog, s.Seed)
	return s.runMarked(m, bbv.Marker{}, bbv.Marker{IsEnd: true}, 0, 0, WarmupFunctional, tap, at)
}

// SimulateRegion runs an unconstrained, binary-driven simulation of the
// region between two (PC, count) markers: the program executes from its
// initial state with the timing model deciding thread progress; detailed
// measurement is enabled between the markers (paper Section V-A1).
func (s *Simulator) SimulateRegion(start, end bbv.Marker, warm WarmupMode) (*Stats, error) {
	m := exec.NewMachine(s.Prog, s.Seed)
	return s.runMarked(m, start, end, 0, 0, warm, bbv.Marker{}, nil)
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
	m.Restore(pb.Start)
	// Recorded syscall results are injected while they last; once the
	// unconstrained interleaving consumes them differently, the OS model
	// takes over.
	replay := exec.NewReplayOS(pb.Syscalls)
	replay.Fallback = exec.NewDefaultOS(s.Seed)
	m.OS = replay
	return s.runMarked(m, pb.Region.Start, pb.Region.End,
		pb.StartHitsAtSnapshot, pb.EndHitsAtSnapshot, WarmupFunctional, bbv.Marker{}, nil)
}

// runMarked drives an unconstrained timing simulation on a prepared
// machine, warming until the start marker and measuring until the end
// marker. startBase/endBase rebase global marker counts for machines that
// begin mid-program. A non-nil at is SimulateFullTap's tap.
func (s *Simulator) runMarked(m *exec.Machine, start, end bbv.Marker, startBase, endBase uint64, warm WarmupMode, tap bbv.Marker, at func(*Stats)) (_ *Stats, err error) {
	defer exec.Recover(&err)
	sys := s.acquire(m)
	defer release(sys)
	var atEnd func(*Stats)
	if tap.IsEnd {
		atEnd, at = at, nil
	} else if tap.IsStart() || tap.IsICount() {
		at = nil // only PC and end taps fire
	}
	var tapHits uint64
	inDetail := start.IsStart() || (!start.IsICount() && !start.IsEnd && start.Count <= startBase)
	warming := warm == WarmupFunctional
	sys.setDetail(inDetail)

	startHits, endHits := startBase, endBase
	var steps uint64
	var detailBase float64
	maxSteps := s.MaxSteps
	if maxSteps == 0 {
		maxSteps = 2_000_000_000
	}

	for sys.alive > 0 {
		tid := sys.next()
		if tid < 0 {
			return nil, exec.ErrDeadlock
		}
		ev, ok := m.Step(tid)
		if !ok {
			return nil, fmt.Errorf("timing: scheduled thread %d could not step", tid)
		}
		steps++
		if steps > maxSteps {
			return nil, fmt.Errorf("timing: %w", exec.ErrMaxSteps)
		}

		// Marker bookkeeping happens before charging so the start
		// marker's own instruction is measured and the end marker's is
		// not — matching how the profiler attributes the boundary
		// instruction to the following region. Raw instruction-count
		// markers (the naive baseline's boundaries) fire on the global
		// retired count instead of a PC.
		if start.IsICount() && !inDetail && steps >= start.Count {
			inDetail = true
			sys.setDetail(true)
			detailBase = sys.wallCycle()
		}
		if end.IsICount() && inDetail && steps >= end.Count {
			return sys.stats(detailBase), nil
		}
		if ev.BlockEntry {
			// Detail begins and ends without resetting core clocks: the
			// warmup phase develops the natural thread stagger of the
			// running system, and measuring wall-clock deltas over it
			// makes isolated regions tile the continuous run exactly
			// (resetting clocks would force every region to re-pay the
			// align-to-steady-state transition).
			if !start.IsStart() && ev.Block.Addr == start.PC {
				startHits++
				if !inDetail && startHits >= start.Count {
					inDetail = true
					sys.setDetail(true)
					detailBase = sys.wallCycle()
				}
			}
			if !end.IsEnd && ev.Block.Addr == end.PC {
				endHits++
				if inDetail && endHits >= end.Count {
					return sys.stats(detailBase), nil
				}
			}
			if at != nil && ev.Block.Addr == tap.PC {
				// The end-marker check above, for a run that goes on.
				tapHits++
				if inDetail && tapHits >= tap.Count {
					at(sys.stats(detailBase))
					at = nil
				}
			}
		}

		// Cycles always accumulate so the min-cycle scheduler interleaves
		// threads fairly even while fast-forwarding; microarchitectural
		// state warms functionally (warmOf) without stall arithmetic, so
		// the fast-forward charge is a uniform dispatch slot regardless
		// of warmup mode.
		if inDetail {
			sys.cycle[tid] += sys.cost(tid, ev)
		} else {
			if warming {
				sys.warmOf(tid, ev)
			}
			sys.cycle[tid] += sys.slot
		}
		sys.settle(tid, ev.Woken)
		if inDetail && s.Trace != nil {
			s.Trace.maybeSample(sys.totalInstrs(), sys.wallCycle())
		}
	}
	if !inDetail {
		if start.IsICount() {
			// Raw instruction-count boundaries are not stable across
			// thread interleavings (Section II): under a different
			// schedule the program can retire fewer instructions (e.g.
			// fewer spin iterations) and never reach the recorded
			// count. The naive baseline then measures nothing for this
			// region — one of the reasons its extrapolation degrades.
			return sys.stats(detailBase), nil
		}
		return nil, fmt.Errorf("timing: start marker %v never reached", start)
	}
	if !end.IsEnd && !end.IsICount() && endHits < end.Count {
		return nil, fmt.Errorf("timing: end marker %v never reached (%d/%d hits)", end, endHits, end.Count)
	}
	if atEnd != nil {
		atEnd(sys.stats(detailBase))
	}
	return sys.stats(detailBase), nil
}

// SimulatePeriodic implements time-based periodic sampling (the paper's
// Section VI baseline, after Carlson et al.): every period retired
// instructions, a window of detail instructions is simulated in detail;
// the remainder fast-forwards with functional warming. The returned
// statistics carry the *extrapolated* cycle count (each window's cycles
// scaled by period/detail). The whole application is still visited
// functionally, which is precisely why this methodology's speedup is
// bounded by application length (Section II).
func (s *Simulator) SimulatePeriodic(detail, period uint64) (_ *Stats, err error) {
	defer exec.Recover(&err)
	if detail == 0 || period == 0 || detail > period {
		return nil, fmt.Errorf("timing: invalid periodic sampling %d/%d", detail, period)
	}
	m := exec.NewMachine(s.Prog, s.Seed)
	sys := s.acquire(m)
	defer release(sys)
	sys.setDetail(true)

	var steps uint64
	var estCycles float64
	windowStart := sys.wallCycle()
	inDetail := true
	for sys.alive > 0 {
		tid := sys.next()
		if tid < 0 {
			return nil, exec.ErrDeadlock
		}
		ev, ok := m.Step(tid)
		if !ok {
			return nil, fmt.Errorf("timing: scheduled thread %d could not step", tid)
		}
		steps++
		phase := steps % period
		wantDetail := phase < detail
		if wantDetail != inDetail {
			if inDetail {
				// Close the detail window and extrapolate it over the period.
				estCycles += (sys.wallCycle() - windowStart) * float64(period) / float64(detail)
			} else {
				windowStart = sys.wallCycle()
			}
			inDetail = wantDetail
			sys.setDetail(wantDetail)
		}
		sys.cycle[tid] += sys.cost(tid, ev)
		sys.settle(tid, ev.Woken)
	}
	if inDetail {
		estCycles += (sys.wallCycle() - windowStart) * float64(period) / float64(detail)
	}
	st := sys.stats(0)
	st.Cycles = estCycles
	return st, nil
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
	m.Restore(pb.Start)
	replay := exec.NewReplayOS(pb.Syscalls)
	m.OS = replay
	sys := s.acquire(m)
	defer release(sys)
	inDetail := pb.WarmupSteps == 0
	sys.setDetail(inDetail)

	var steps uint64
	var base float64
	for _, e := range pb.Schedule {
		for i := uint32(0); i < e.N; i++ {
			ev, ok := m.Step(e.Tid)
			if !ok {
				return nil, fmt.Errorf("timing: constrained replay diverged: thread %d is %s",
					e.Tid, m.Threads[e.Tid].State)
			}
			steps++
			if !inDetail && steps > pb.WarmupSteps {
				inDetail = true
				sys.setDetail(true)
				base = sys.wallCycle()
			}
			sys.constrainedOrderStall(e.Tid, ev)
			sys.cycle[e.Tid] += sys.cost(e.Tid, ev)
			sys.wake(e.Tid, ev.Woken)
		}
	}
	if replay.Diverged {
		return nil, fmt.Errorf("timing: constrained replay exhausted the syscall injection log")
	}
	return sys.stats(base), nil
}
