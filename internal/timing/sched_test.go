package timing

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

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
// rounds.
func TestSchedulerMatchesOracle(t *testing.T) {
	machines := map[int]*exec.Machine{}
	for _, n := range []int{1, 2, 3, 8, MaxCores} {
		machines[n] = exec.NewMachine(testprog.Phased(n, 1, 1, omp.Passive), 1)
	}
	sizes := []int{1, 2, 3, 8, 8, 8, MaxCores}
	slots := []float64{1.0 / 4, 1.0 / 2, 1.0 / 3}
	rng := rand.New(rand.NewSource(17))

	cases, emptyStarts, singleStarts := 0, 0, 0
	for ; cases < 12000; cases++ {
		n := sizes[rng.Intn(len(sizes))]
		m := machines[n]
		sys := &system{m: m, cycle: make([]float64, n)}
		sys.slot = slots[rng.Intn(len(slots))]
		sys.wakeLat = float64(rng.Intn(2) * 180) // 0: a woken thread ties with its waker

		// A base magnitude, sometimes a few slots below a binade boundary.
		base := float64(rng.Intn(1000))
		if rng.Intn(3) == 0 {
			base = math.Ldexp(1, 1+rng.Intn(40)) - float64(rng.Intn(4))*sys.slot
		}
		offsets := []float64{0, 0, 0, sys.slot, 2 * sys.slot, sys.slot / 2, sys.slot / 3, 1e-9, 7.5}
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
			if rng.Intn(2) == 0 {
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
			sys.settle(tid, woken)
		}
	}
	if emptyStarts == 0 || singleStarts == 0 {
		t.Fatalf("%d cases never started empty (%d) or with one runnable thread (%d)", cases, emptyStarts, singleStarts)
	}
}

// TestRunLoopsPickLikeOracle drives runMarked's loop by hand — single
// instructions under cost, then under the fast-forward charge — and checks
// before every step that the run queue, which keeps its pick until it is
// overtaken, names the thread a fresh walk over all threads would. The
// detailed statistics must equal a SimulateFull of the same program, so
// the loop checked here is the loop that ships.
func TestRunLoopsPickLikeOracle(t *testing.T) {
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		p := testprog.Phased(4, 6, 80, policy)
		cfg := Gainestown(4)
		for _, detail := range []bool{true, false} {
			m := exec.NewMachine(p, 1)
			sys := newSystem(cfg, m)
			sys.setDetail(detail)
			stays := 0
			for last := -1; sys.alive > 0; {
				tid := checkAgainstOracle(t, sys, "run loop")
				if tid < 0 {
					t.Fatal("deadlock")
				}
				if tid == last {
					stays++
				}
				last = tid
				ev, ok := m.Step(tid)
				if !ok {
					t.Fatalf("thread %d could not step", tid)
				}
				if detail {
					sys.cycle[tid] += sys.cost(tid, ev)
				} else {
					sys.warmOf(tid, ev)
					sys.cycle[tid] += sys.slot
				}
				sys.settle(tid, ev.Woken)
			}
			if !detail {
				// Under the uniform charge spinning threads alternate
				// after every instruction; nothing more to compare.
				continue
			}
			if stays == 0 {
				t.Errorf("policy %v: detail loop never kept its pick: stay-until-overtaken not exercised", policy)
			}
			sim, err := New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.SimulateFull()
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.stats(0); !reflect.DeepEqual(got, want) {
				t.Errorf("policy %v: hand-driven detail loop differs from SimulateFull\ngot:  %+v\nwant: %+v", policy, got, want)
			}
		}
	}
}
