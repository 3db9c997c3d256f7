package timing

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// pickNext returns the runnable thread whose core has the smallest cycle
// count (ties broken by thread ID), or -1 if none can run. It is the
// scheduler as it was written before it moved into system — a walk over
// every thread per instruction — kept as the oracle the run queue is
// checked against.
func pickNext(m *exec.Machine, cycle []float64) int {
	best := -1
	var bestCycle float64
	for tid, t := range m.Threads {
		if t.State != exec.StateRunning {
			continue
		}
		c := cycle[tid]
		if best == -1 || c < bestCycle {
			best, bestCycle = tid, c
		}
	}
	return best
}

// checkAgainstOracle compares the run queue's view with the oracle's.
func checkAgainstOracle(t *testing.T, sys *system, when string) int {
	t.Helper()
	m := sys.m
	tid := sys.next()
	if want := pickNext(m, sys.cycle); tid != want {
		t.Fatalf("%s: next() = %d, pickNext = %d (cycles %v)", when, tid, want, sys.cycle)
	}
	if done := sys.alive == 0; done != m.Done() {
		t.Fatalf("%s: alive = %d but Done() = %v", when, sys.alive, m.Done())
	}
	if dead := tid < 0 && sys.alive > 0; dead != m.Deadlocked() {
		t.Fatalf("%s: next() = %d, alive = %d but Deadlocked() = %v", when, tid, sys.alive, m.Deadlocked())
	}
	return tid
}

// TestSchedulerMatchesOracle: over seeded random thread sets, cycle
// vectors and step sequences, the run queue picks the thread pickNext
// picks, and its alive count agrees with Done and Deadlocked. Cycle
// vectors are built to collide: exact ties, offsets below one dispatch
// slot, and magnitudes just under a power of two, where adding a slot
// rounds, or just under lockstep's bound. Half the walks charge every
// step one slot and hand off as the timing loop does while every
// instruction costs one: once lockstep reports the ring flat, every
// thread that steps is rotated to the back without a comparison, and
// each of those picks must still be the oracle's.
func TestSchedulerMatchesOracle(t *testing.T) {
	machines := map[int]*exec.Machine{}
	for _, n := range []int{1, 2, 3, 8, MaxCores} {
		machines[n] = exec.NewMachine(testprog.Phased(n, 1, 1, omp.Passive), 1)
	}
	sizes := []int{1, 2, 3, 8, 8, 8, MaxCores}
	dispatch := []int{4, 2, 3} // slots 1/4, 1/2, 1/3
	rng := rand.New(rand.NewSource(17))

	cases, emptyStarts, singleStarts, rotations := 0, 0, 0, 0
	for ; cases < 12000; cases++ {
		n := sizes[rng.Intn(len(sizes))]
		m := machines[n]
		cfg := Gainestown(n)
		cfg.Dispatch = dispatch[rng.Intn(len(dispatch))]
		sys := &system{m: m, cycle: make([]float64, n), charges: newCharges(cfg)}
		sys.wakeLat = float64(rng.Intn(2) * 180) // 0: a woken thread ties with its waker
		uniform := rng.Intn(2) == 0

		// A base magnitude, sometimes a few slots below a binade boundary
		// or below lockstep's bound.
		base := float64(rng.Intn(1000))
		switch rng.Intn(6) {
		case 0, 1:
			base = math.Ldexp(1, 1+rng.Intn(40)) - float64(rng.Intn(4))*sys.slot
		case 2:
			base = math.Ldexp(sys.slot, 51) - float64(rng.Intn(3))*sys.slot
		}
		offsets := []float64{0, 0, 0, sys.slot, 2 * sys.slot, sys.slot / 2, sys.slot / 3, 1e-9, 7.5}
		if uniform {
			// Where every charge is one slot, every count is a whole
			// number of slots, from zero and whole-cycle wake latencies.
			offsets = []float64{0, 0, 0, sys.slot, sys.slot, 2 * sys.slot, 180}
		}
		density := rng.Intn(5) // 0: nobody runnable at the start
		var starters []int
		for tid, th := range m.Threads {
			sys.cycle[tid] = base + offsets[rng.Intn(len(offsets))]
			switch {
			case rng.Intn(4) < density:
				th.State = exec.StateRunning
				starters = append(starters, tid)
				sys.alive++
			case rng.Intn(2) == 0:
				th.State = exec.StateBlocked
				sys.alive++
			default:
				th.State = exec.StateHalted
			}
		}
		rng.Shuffle(len(starters), func(i, j int) { starters[i], starters[j] = starters[j], starters[i] })
		for _, tid := range starters {
			sys.enter(tid)
		}
		switch len(starters) {
		case 0:
			emptyStarts++
		case 1:
			singleStarts++
		}

		for step := 0; step < 40; step++ {
			tid := checkAgainstOracle(t, sys, "random walk")
			if tid < 0 {
				break
			}
			// Charge like a fast-forward instruction (one slot) or like a
			// detailed one (any positive cost).
			if uniform || rng.Intn(2) == 0 {
				sys.cycle[tid] += sys.slot
			} else {
				sys.cycle[tid] += sys.slot + float64(rng.Intn(200))*sys.slot/2
			}
			switch rng.Intn(12) {
			case 0:
				m.Threads[tid].State = exec.StateBlocked
			case 1:
				m.Threads[tid].State = exec.StateHalted
			}
			var woken []int
			if rng.Intn(6) == 0 {
				for w, th := range m.Threads {
					if w != tid && th.State == exec.StateBlocked && rng.Intn(2) == 0 {
						th.State = exec.StateRunning
						woken = append(woken, w)
					}
				}
			}
			switch {
			case !uniform || m.Threads[tid].State != exec.StateRunning || len(woken) > 0:
				sys.settle(tid, woken)
			case sys.flat:
				sys.rotate(tid)
				rotations++
			default:
				if !sys.staysFirst(tid) {
					sys.insert(tid)
				}
				sys.flat = sys.lockstep()
			}
		}
	}
	if emptyStarts == 0 || singleStarts == 0 || rotations == 0 {
		t.Fatalf("%d cases never started empty (%d), with one runnable thread (%d) or rotated (%d)", cases, emptyStarts, singleStarts, rotations)
	}
}

// TestRunLoopsPickLikeOracle runs the shipping timing loop — single
// instructions charged in detail, then in fast-forward — under an order
// that a shadow run queue writes as the loop goes: after each step the
// shadow hands the stepped thread off or settles it as the loop does in an
// unordered run (the same rotate, staysFirst, insert, lockstep and
// settle), and before every step it must name the thread a fresh walk
// over all threads would. So every pick of the run is the run queue's,
// checked, and the run must end as the same run does without the order,
// where the loop keeps its own run queue: the same statistics (in detail,
// SimulateFull's) and, in fast-forward, where the ring is flat from the
// start, the same cycle count on every core.
func TestRunLoopsPickLikeOracle(t *testing.T) {
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		p := testprog.Phased(4, 6, 80, policy)
		cfg := Gainestown(4)
		for _, detail := range []bool{true, false} {
			// Unless in detail, fast-forward throughout: the start marker
			// is never reached.
			newRun := func(bind func(*system)) *run {
				r := &run{src: exec.NewMachine(p, 1), end: bbv.Marker{IsEnd: true}, before: warmed, bind: bind}
				if !detail {
					r.start = bbv.Marker{Count: 1 << 62}
				}
				return r
			}
			o := &shadowQueue{t: t, last: -1, uniform: !detail}
			var ordered, own []float64
			got, err := freshSim(t, cfg, p).simulate(newRun(func(sys *system) {
				o.sys, ordered = sys, sys.cycle
				sys.follow(o.next, false)
			}))
			if err != nil {
				t.Fatal(err)
			}
			if o.stays == 0 && detail {
				t.Errorf("policy %v: detail loop never kept its pick: stay-until-overtaken not exercised", policy)
			}
			if o.rotations == 0 && !detail {
				t.Errorf("policy %v: fast-forward loop never rotated a flat ring", policy)
			}
			want, err := freshSim(t, cfg, p).simulate(newRun(func(sys *system) { own = sys.cycle }))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("policy %v, detail %v: oracle-checked loop differs from its own\ngot:  %+v\nwant: %+v", policy, detail, got, want)
			}
			if !reflect.DeepEqual(ordered, own) {
				t.Errorf("policy %v, detail %v: oracle-checked loop ends at cycles %v, its own at %v", policy, detail, ordered, own)
			}
		}
	}
}

// shadowQueue is a run's order: a run queue of its own over the run's
// machine and cycle counts, kept as the loop keeps its queue in an
// unordered run, whose every pick is checked against pickNext.
type shadowQueue struct {
	t           *testing.T
	sys, q      *system // the run's system; the shadow queue
	states      []exec.ThreadState
	last, stays int
	rotations   int
	uniform     bool // the run charges every instruction one slot
}

// next settles the thread that just stepped (none at the bind), then
// names the shadow queue's pick.
func (o *shadowQueue) next() (int, bool) {
	m := o.sys.m
	if o.q == nil {
		o.q = &system{cycle: o.sys.cycle, charges: o.sys.charges}
		o.q.bind(m)
		o.q.flat = o.uniform // as the run's begin leaves it
	} else {
		tid := o.last
		var woken []int
		for w, th := range m.Threads {
			if o.states[w] != exec.StateRunning && th.State == exec.StateRunning {
				woken = append(woken, w)
			}
		}
		// Under the order the loop's settle has already timed the woken
		// threads; timing them again changes nothing.
		switch {
		case m.Threads[tid].State != exec.StateRunning || len(woken) > 0:
			o.q.settle(tid, woken)
		case o.q.flat:
			o.q.rotate(tid)
			o.rotations++
		default:
			if !o.q.staysFirst(tid) {
				o.q.insert(tid)
			}
			if o.uniform {
				o.q.flat = o.q.lockstep()
			}
		}
	}
	tid := checkAgainstOracle(o.t, o.q, "run loop")
	if tid < 0 {
		return 0, false
	}
	if tid == o.last {
		o.stays++
	}
	o.last = tid
	o.states = o.states[:0]
	for _, th := range m.Threads {
		o.states = append(o.states, th.State)
	}
	return tid, true
}
