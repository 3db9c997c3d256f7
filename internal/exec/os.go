package exec

import "looppoint/internal/isa"

// OS models the operating system visible to programs through OpSyscall.
// Syscall results are the only source of non-determinism in the machine;
// pinball recording captures them and replay injects them (paper
// Section IV-C: "System calls are skipped and their side-effects are
// injected").
type OS interface {
	Syscall(m *Machine, tid int, no isa.SyscallNo, arg int64) int64
}

// StatefulOS is implemented by OS models whose results depend on
// internal state that a mid-run Snapshot must carry for a later Restore
// to continue byte-identically. SnapshotOS exports that state as an
// opaque word slice; RestoreOS loads a slice previously exported by the
// same kind of OS. The encoding is private to each implementation, so
// state must only ever be poured back into the OS kind that produced it
// (Machine.Restore leaves mismatched kinds alone only in the trivial
// sense that callers are expected to install the right OS first).
type StatefulOS interface {
	SnapshotOS() []uint64
	RestoreOS(state []uint64)
}

// DefaultOS is a deterministic OS model: SysRand draws from a seeded
// xorshift generator (per-machine, shared across threads, so results
// depend on scheduling order — exactly the kind of side effect a pinball
// must capture), SysTime is a monotonic tick, SysWrite discards output.
type DefaultOS struct {
	rng  uint64
	tick int64
}

// NewDefaultOS returns a DefaultOS seeded with seed.
func NewDefaultOS(seed uint64) *DefaultOS {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &DefaultOS{rng: seed}
}

// Syscall implements OS.
func (o *DefaultOS) Syscall(m *Machine, tid int, no isa.SyscallNo, arg int64) int64 {
	switch no {
	case isa.SysRand:
		o.rng ^= o.rng << 13
		o.rng ^= o.rng >> 7
		o.rng ^= o.rng << 17
		return int64(o.rng >> 1)
	case isa.SysTime:
		o.tick++
		return o.tick
	case isa.SysWrite:
		return arg
	}
	return -1
}

// SnapshotOS implements StatefulOS: the xorshift state and the tick.
func (o *DefaultOS) SnapshotOS() []uint64 { return []uint64{o.rng, uint64(o.tick)} }

// RestoreOS implements StatefulOS.
func (o *DefaultOS) RestoreOS(state []uint64) {
	if len(state) >= 2 {
		o.rng, o.tick = state[0], int64(state[1])
	}
}

// RecordingOS wraps an OS and logs every result per thread, producing the
// injection log stored in a pinball.
type RecordingOS struct {
	Inner OS
	Log   [][]int64 // per-thread result sequences
}

// NewRecordingOS wraps inner for an nthreads-thread machine.
func NewRecordingOS(inner OS, nthreads int) *RecordingOS {
	return &RecordingOS{Inner: inner, Log: make([][]int64, nthreads)}
}

// Syscall implements OS.
func (o *RecordingOS) Syscall(m *Machine, tid int, no isa.SyscallNo, arg int64) int64 {
	r := o.Inner.Syscall(m, tid, no, arg)
	o.Log[tid] = append(o.Log[tid], r)
	return r
}

// SnapshotOS implements StatefulOS by delegating to the wrapped OS. The
// log itself is not state to carry: a recording resumed from a snapshot
// appends to whatever log the caller handed it.
func (o *RecordingOS) SnapshotOS() []uint64 {
	if so, ok := o.Inner.(StatefulOS); ok {
		return so.SnapshotOS()
	}
	return nil
}

// RestoreOS implements StatefulOS by delegating to the wrapped OS.
func (o *RecordingOS) RestoreOS(state []uint64) {
	if so, ok := o.Inner.(StatefulOS); ok {
		so.RestoreOS(state)
	}
}

// ReplayOS injects previously recorded syscall results. It fails loudly if
// a thread performs more syscalls than were recorded, which indicates the
// replayed execution diverged from the recording.
type ReplayOS struct {
	Log [][]int64
	pos []int
	// Diverged is set if injection ran dry; the machine keeps running on
	// a fallback value so callers can surface the error.
	Diverged bool
	// Fallback, when non-nil, answers syscalls after the log runs dry
	// instead of flagging divergence. Unconstrained simulation from a
	// checkpoint uses this: the recorded results cover the recorded
	// interleaving, but a timing-driven run may consume them in a
	// different per-thread split (ELFie-style execution).
	Fallback OS
}

// NewReplayOS builds a ReplayOS from a recorded per-thread log.
func NewReplayOS(log [][]int64) *ReplayOS {
	return &ReplayOS{Log: log, pos: make([]int, len(log))}
}

// SnapshotOS implements StatefulOS: the per-thread injection cursors.
func (o *ReplayOS) SnapshotOS() []uint64 {
	state := make([]uint64, len(o.pos))
	for i, p := range o.pos {
		state[i] = uint64(p)
	}
	return state
}

// RestoreOS implements StatefulOS.
func (o *ReplayOS) RestoreOS(state []uint64) {
	if len(o.pos) != len(o.Log) {
		o.pos = make([]int, len(o.Log))
	}
	for i := range o.pos {
		if i < len(state) {
			o.pos[i] = int(state[i])
		} else {
			o.pos[i] = 0
		}
	}
}

// Positions returns a copy of the per-thread injection cursor, i.e. how
// many syscall results each thread has consumed so far.
func (o *ReplayOS) Positions() []int {
	return append([]int(nil), o.pos...)
}

// Syscall implements OS.
func (o *ReplayOS) Syscall(m *Machine, tid int, no isa.SyscallNo, arg int64) int64 {
	if tid >= len(o.Log) || o.pos[tid] >= len(o.Log[tid]) {
		if o.Fallback != nil {
			return o.Fallback.Syscall(m, tid, no, arg)
		}
		o.Diverged = true
		return 0
	}
	r := o.Log[tid][o.pos[tid]]
	o.pos[tid]++
	return r
}
