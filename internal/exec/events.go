package exec

import "looppoint/internal/isa"

// This file defines the machine's observer interface: block events. The
// interpreter executes whole basic blocks (and back-to-back re-entries of
// self-loop blocks) in a tight loop and emits ONE coalesced BlockEvent per
// batch, which is all recording, DCFG construction, BBV profiling and
// region extraction need. An event's shape depends only on budgets,
// control flow, futexes and halts, never on its observers: an observer
// that needs an exact position inside an event (the BBV collector's
// (PC, count) markers) computes it from FirstIdx, Entries and Instrs.

// BlockEvent describes a batched run of instructions inside one basic
// block: at most one partial leading pass (when resuming mid-block) plus
// any number of passes starting at instruction 0. The value handed to
// observers is reused for the driver's next batch; observers must not
// retain it or its slices past OnBlock.
type BlockEvent struct {
	Tid   int
	Block *isa.Block
	// FirstIdx is the index within Block.Instrs of the event's first
	// executed instruction. Non-zero when resuming mid-block (after a
	// futex wake, a budget split, or a return).
	FirstIdx int
	// Entries counts block entries in the event: passes that began at
	// instruction 0 (a resumed partial pass is not an entry).
	Entries uint64
	// Instrs is the number of instructions the event retired.
	Instrs uint64
	// Blocked reports that the final instruction parked the thread on a
	// futex. Woken lists threads woken by a FutexWake; a wake that
	// unparks at least one thread always ends the event so schedulers
	// observe it at the exact instruction position it occurred.
	Blocked bool
	Woken   []int
}

// reset prepares a (possibly recycled) event for reuse, keeping the Woken
// backing array so steady-state dispatch is allocation-free.
func (ev *BlockEvent) reset(tid int, blk *isa.Block, firstIdx int) {
	ev.Tid = tid
	ev.Block = blk
	ev.FirstIdx = firstIdx
	ev.Entries = 0
	ev.Instrs = 0
	ev.Blocked = false
	ev.Woken = ev.Woken[:0]
}

// BlockObserver receives coalesced block events. Implementations must be
// cheap and must not retain the event (see BlockEvent).
type BlockObserver interface {
	OnBlock(ev *BlockEvent)
}

// BlockObserverFunc adapts a function to the BlockObserver interface.
type BlockObserverFunc func(ev *BlockEvent)

// OnBlock implements BlockObserver.
func (f BlockObserverFunc) OnBlock(ev *BlockEvent) { f(ev) }

// AddBlockObserver registers a block-granular observer.
func (m *Machine) AddBlockObserver(o BlockObserver) {
	m.blockObservers = append(m.blockObservers, o)
}
