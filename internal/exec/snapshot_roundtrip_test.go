package exec

import (
	"reflect"
	"testing"

	"looppoint/internal/isa"
)

// roundTripVariant configures how the continued machine runs: the block
// tier, the per-instruction reference (stepSchedule), or the block tier in
// budgets of three instructions, which resumes blocks mid-pass
// (FirstIdx > 0) wherever a budget runs out. A mid-run snapshot must
// restore byte-identically under every mode: the extraction sweep that
// captures checkpoints and the replays and simulations that resume from
// them retire instructions at different granularities.
type roundTripVariant struct {
	name string
	run  func(m *Machine, s Schedule) error
}

func roundTripVariants() []roundTripVariant {
	return []roundTripVariant{
		{"fast", (*Machine).RunSchedule},
		{"per-instr", stepSchedule},
		{"budget-3", func(m *Machine, s Schedule) error { return m.RunSchedule(chop(s, 3)) }},
	}
}

// chop re-cuts s into entries of at most n instructions: the same
// interleaving, which RunSchedule then retires in budgets of at most n.
func chop(s Schedule, n uint32) Schedule {
	var out Schedule
	for _, e := range s {
		for left := e.N; left > 0; left -= min(left, n) {
			out = append(out, ScheduleEntry{Tid: e.Tid, N: min(left, n)})
		}
	}
	return out
}

// TestSnapshotRoundTrip is the mid-run resume property test: for swept
// cut points N, run N steps, Snapshot, Restore into a fresh machine,
// run the remaining schedule, and require the final Snapshot to
// deep-equal an uninterrupted run — including threads parked mid-wait
// (futex queues) and the OS model's internal state.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, p := range fastPathPrograms(t) {
		t.Run(name, func(t *testing.T) {
			rec := NewMachine(p, 11)
			var sched Schedule
			if err := rec.Run(RunOpts{FlowWindow: 64, QuantumBias: []int{3, 1, 2, 1}, Record: &sched}); err != nil {
				t.Fatalf("record: %v", err)
			}
			total := sched.Steps()

			ref := NewMachine(p, 11)
			if err := ref.RunSchedule(sched); err != nil {
				t.Fatalf("reference replay: %v", err)
			}
			final := ref.Snapshot()

			// Fractional cut points, plus cut points discovered by walking
			// the schedule entry-by-entry and noting where threads are
			// parked in futex waits — those are the states where a naive
			// restore (thread-ID-order queues, no OS state) would diverge.
			cuts := map[uint64]bool{}
			for _, frac := range []uint64{1, 5, 7, 13, 29, 64} {
				cuts[total*frac/64] = true
			}
			walk := NewMachine(p, 11)
			var at uint64
			parkedCuts := 0
			for _, e := range sched {
				if err := walk.RunSchedule(Schedule{e}); err != nil {
					t.Fatalf("walk: %v", err)
				}
				at += uint64(e.N)
				if len(walk.futexQ) > 0 && parkedCuts < 4 && !cuts[at] {
					cuts[at] = true
					parkedCuts++
				}
			}

			parked := 0
			for n := range cuts {
				if n == 0 || n >= total {
					continue
				}
				a := NewMachine(p, 11)
				if err := a.RunSchedule(sched.Window(0, n)); err != nil {
					t.Fatalf("prefix run to %d: %v", n, err)
				}
				snap := a.Snapshot()
				if len(snap.Futexes) > 0 {
					parked++
				}
				for _, v := range roundTripVariants() {
					b := NewMachine(p, 99) // wrong seed on purpose: Restore must overwrite OS state
					if err := b.Restore(snap); err != nil {
						t.Fatal(err)
					}
					if err := v.run(b, sched.Window(n, total-n)); err != nil {
						t.Fatalf("cut %d (%s): resume: %v", n, v.name, err)
					}
					got := b.Snapshot()
					if !reflect.DeepEqual(got, final) {
						t.Fatalf("cut %d (%s): resumed final snapshot differs from uninterrupted run", n, v.name)
					}
				}
			}
			if name == "phased-passive" && parked == 0 {
				t.Fatal("no cut point caught a thread parked mid-wait; the sweep is not exercising futex restore")
			}
		})
	}
}

// TestRestoreHonorsFutexQueueOrder pins that Restore rebuilds futex wait
// queues in exactly the captured order rather than re-sorting by thread
// ID: wake order is FIFO, so queue order is architectural state.
func TestRestoreHonorsFutexQueueOrder(t *testing.T) {
	p := phasedProgramWithWaiters(t)
	m := NewMachine(p, 5)
	var sched Schedule
	if err := m.Run(RunOpts{Record: &sched}); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Find a prefix at which some queue holds at least two waiters.
	total := sched.Steps()
	var snap *Snapshot
	for n := uint64(1); n < total; n++ {
		a := NewMachine(p, 5)
		if err := a.RunSchedule(sched.Window(0, n)); err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		s := a.Snapshot()
		for _, q := range s.Futexes {
			if len(q.Tids) >= 2 {
				snap = s
			}
		}
		if snap != nil {
			break
		}
	}
	if snap == nil {
		t.Skip("no multi-waiter futex state reachable in this program")
	}

	// Reverse the captured order and restore: the machine's queue must
	// reflect the snapshot verbatim, not thread-ID order.
	for i := range snap.Futexes {
		q := snap.Futexes[i].Tids
		for l, r := 0, len(q)-1; l < r; l, r = l+1, r-1 {
			q[l], q[r] = q[r], q[l]
		}
	}
	b := NewMachine(p, 5)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for _, q := range snap.Futexes {
		if !reflect.DeepEqual(b.futexQ[q.Addr], q.Tids) {
			t.Fatalf("futex %#x restored as %v, want %v", q.Addr, b.futexQ[q.Addr], q.Tids)
		}
	}
}

func phasedProgramWithWaiters(t *testing.T) *isa.Program {
	for name, p := range fastPathPrograms(t) {
		if name == "phased-passive" {
			return p
		}
	}
	t.Fatal("phased-passive program missing")
	return nil
}

// TestReplayOSPositionSeeding pins the StatefulOS round-trip on the replay
// OS: cursors restored from a snapshot's OS state consume the log exactly
// where the snapshotted replay left off.
func TestReplayOSPositionSeeding(t *testing.T) {
	log := [][]int64{{10, 11, 12}, {20, 21}}
	o := NewReplayOS(log)
	o.Syscall(nil, 0, isa.SysRand, 0)
	o.Syscall(nil, 1, isa.SysRand, 0)
	o.Syscall(nil, 0, isa.SysRand, 0)
	state := o.SnapshotOS()

	restored := NewReplayOS(log)
	restored.RestoreOS(state)
	if got := restored.Positions(); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("RestoreOS positions = %v, want [2 1]", got)
	}
	if got := restored.Syscall(nil, 0, isa.SysRand, 0); got != 12 {
		t.Fatalf("restored tid 0 got %d, want 12", got)
	}
	if got := restored.Syscall(nil, 1, isa.SysRand, 0); got != 21 {
		t.Fatalf("restored tid 1 got %d, want 21", got)
	}
}
