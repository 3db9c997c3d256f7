package exec

import (
	"errors"
	"fmt"
	"sort"
)

// ErrForeignSnapshot is Restore's error for a snapshot of another program:
// another thread count, or a code position this program does not have.
var ErrForeignSnapshot = errors.New("exec: snapshot does not fit the program")

// Snapshot is a deep copy of a machine's architectural state: shared
// memory plus every thread's registers, call stack, and position. It is
// the memory/register portion of a pinball (paper Section IV-C).
//
// A snapshot taken mid-run carries everything a resumed machine needs to
// continue byte-identically to the uninterrupted execution: the futex
// wait queues in their exact FIFO order (Futexes) and the OS model's
// internal state (OS) when the machine's OS implements StatefulOS.
type Snapshot struct {
	Mem     []uint64
	Threads []ThreadSnapshot
	Steps   uint64
	// Futexes captures the machine's futex wait queues in wake order,
	// sorted by address. nil means no thread was parked mid-wait (or the
	// snapshot predates this field); Restore then falls back to the
	// legacy thread-ID-order rebuild.
	Futexes []FutexQueue
	// OS is the opaque state exported by the machine's OS model via
	// StatefulOS (DefaultOS: rng and tick; ReplayOS: injection cursors).
	// Restore pours it back only when the restoring machine's OS is the
	// same stateful kind; callers that swap the OS after Restore (as
	// pinball replay does) are unaffected.
	OS []uint64
}

// FutexQueue records the FIFO wait queue of one futex address. The
// queue order is semantic: OpFutexWake wakes the front waiter, so a
// snapshot that loses the order diverges at the next wake.
type FutexQueue struct {
	Addr uint64
	Tids []int
}

// ThreadSnapshot captures one thread's context.
type ThreadSnapshot struct {
	R      [32]int64
	F      [32]float64
	State  ThreadState
	Cur    FrameRef
	Stack  []FrameRef
	ICount uint64
	Futex  uint64
}

// FrameRef names a code position by image/routine/block/index so that a
// snapshot remains valid across machine instances of the same program.
type FrameRef struct {
	Image   int
	Routine int
	Block   int
	Index   int
}

func (m *Machine) frameRef(f frame) FrameRef {
	return FrameRef{Image: f.rt.Image.ID, Routine: f.rt.ID, Block: f.blk, Index: f.idx}
}

func (m *Machine) resolveFrame(r FrameRef) (frame, error) {
	if ims := m.Prog.Images; uint(r.Image) < uint(len(ims)) && uint(r.Routine) < uint(len(ims[r.Image].Routines)) {
		rt := ims[r.Image].Routines[r.Routine]
		if uint(r.Block) < uint(len(rt.Blocks)) && uint(r.Index) < uint(len(rt.Blocks[r.Block].Instrs)) {
			return frame{rt: rt, blk: r.Block, idx: r.Index}, nil
		}
	}
	return frame{}, fmt.Errorf("%w: no instruction at %+v in %s", ErrForeignSnapshot, r, m.Prog.Name)
}

// Snapshot captures the machine's current architectural state.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{Mem: make([]uint64, len(m.Mem)), Steps: m.steps}
	copy(s.Mem, m.Mem)
	for _, t := range m.Threads {
		ts := ThreadSnapshot{
			R: t.R, F: t.F, State: t.State,
			Cur: m.frameRef(t.cur), ICount: t.ICount, Futex: t.futexAddr,
		}
		for _, f := range t.stack {
			ts.Stack = append(ts.Stack, m.frameRef(f))
		}
		s.Threads = append(s.Threads, ts)
	}
	for addr, q := range m.futexQ {
		if len(q) == 0 {
			continue
		}
		s.Futexes = append(s.Futexes, FutexQueue{Addr: addr, Tids: append([]int(nil), q...)})
	}
	sort.Slice(s.Futexes, func(i, j int) bool { return s.Futexes[i].Addr < s.Futexes[j].Addr })
	if so, ok := m.OS.(StatefulOS); ok {
		s.OS = so.SnapshotOS()
	}
	return s
}

// Restore loads a snapshot into the machine. Futex wait queues are
// rebuilt in the exact wake order the snapshot captured (Futexes); a
// legacy snapshot without that field falls back to thread-ID order,
// which is only safe for snapshots taken outside any wait. If the
// snapshot carries OS state and the machine's OS implements StatefulOS,
// the state is poured back; set the machine's final OS before calling
// Restore (or seed it explicitly afterward) so the state lands in the
// model that will actually run. A snapshot of another program fails with
// ErrForeignSnapshot and leaves the machine unusable.
func (m *Machine) Restore(s *Snapshot) error {
	if len(s.Threads) != len(m.Threads) {
		return fmt.Errorf("%w: %d threads, %s has %d", ErrForeignSnapshot, len(s.Threads), m.Prog.Name, len(m.Threads))
	}
	copy(m.Mem, s.Mem)
	m.steps = s.Steps
	m.futexQ = make(map[uint64][]int)
	for i, ts := range s.Threads {
		t := m.Threads[i]
		t.R, t.F, t.State = ts.R, ts.F, ts.State
		var err error
		if t.cur, err = m.resolveFrame(ts.Cur); err != nil {
			return err
		}
		t.stack = t.stack[:0]
		for _, fr := range ts.Stack {
			f, err := m.resolveFrame(fr)
			if err != nil {
				return err
			}
			t.stack = append(t.stack, f)
		}
		t.ICount = ts.ICount
		t.futexAddr = ts.Futex
		if s.Futexes == nil && t.State == StateBlocked {
			m.futexQ[t.futexAddr] = append(m.futexQ[t.futexAddr], t.ID)
		}
	}
	for _, q := range s.Futexes {
		m.futexQ[q.Addr] = append([]int(nil), q.Tids...)
	}
	if s.OS != nil {
		if so, ok := m.OS.(StatefulOS); ok {
			so.RestoreOS(s.OS)
		}
	}
	return nil
}
