package timing

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// Trace-driven simulation — the third "how to simulate" option of the
// paper's Section II taxonomy (next to binary-driven and
// checkpoint-driven): an instruction-by-instruction record of an
// execution is fed to a timing-only simulator. A trace fixes the thread
// interleaving by construction, so trace-driven simulation is inherently
// constrained; the paper's reasons to prefer unconstrained simulation
// apply to it as well. Its virtue is decoupling: the consumer needs no
// functional machine, no program, and no inputs — only the trace file.

const (
	traceMagic   = "LOOPTRCE"
	traceVersion = uint32(1)
)

// flag bits packed into each record.
const (
	tfBlockEntry = 1 << 0
	tfTaken      = 1 << 1
	tfBlocked    = 1 << 2
	tfSync       = 1 << 3
	tfMem        = 1 << 4
)

// maxTraceAddr bounds the byte addresses a trace may carry. The coherence
// directory is a slice indexed by cache line that grows to the highest
// line touched, so an address from a corrupt or hostile trace must not
// size it; 256 MB is several hundred times the largest ref-input program.
const maxTraceAddr = 1 << 28

// TraceWriter streams one compact record per executed instruction. Feed
// OnInstr every instruction of a per-instruction run (pinball.StepReplay)
// and Close when done.
type TraceWriter struct {
	w   *bufio.Writer
	err error
	n   uint64
}

// NewTraceWriter starts a trace on dst.
func NewTraceWriter(dst io.Writer) (*TraceWriter, error) {
	w := &TraceWriter{w: bufio.NewWriterSize(dst, 1<<20)}
	if _, err := w.w.WriteString(traceMagic); err != nil {
		return nil, err
	}
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], traceVersion)
	if _, err := w.w.Write(ver[:]); err != nil {
		return nil, err
	}
	return w, nil
}

// OnInstr appends the record of one instruction thread tid retired.
func (t *TraceWriter) OnInstr(tid int, ev exec.Retired) {
	if t.err != nil {
		return
	}
	var rec [27]byte
	rec[0] = uint8(tid)
	rec[1] = uint8(ev.Instr.Op)
	var flags uint8
	if ev.BlockEntry {
		flags |= tfBlockEntry
	}
	if ev.Taken {
		flags |= tfTaken
	}
	if ev.Blocked {
		flags |= tfBlocked
	}
	if ev.Block.Routine.Image.Sync {
		flags |= tfSync
	}
	if ev.Instr.Op.IsMem() {
		flags |= tfMem
	}
	rec[2] = flags
	binary.LittleEndian.PutUint64(rec[3:], ev.Instr.Addr)
	binary.LittleEndian.PutUint64(rec[11:], ev.Block.Addr)
	binary.LittleEndian.PutUint64(rec[19:], ev.MemAddr)
	if _, err := t.w.Write(rec[:]); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Records returns how many instructions have been traced.
func (t *TraceWriter) Records() uint64 { return t.n }

// Close flushes the trace.
func (t *TraceWriter) Close() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// SimulateTrace runs a timing-only simulation over a recorded trace: no
// functional machine executes; each record is charged on its thread's
// core exactly as a live instruction would be. Thread wake-ups are
// approximated from trace order: the first record of a thread after it
// blocked resumes no earlier than the previously retired record's core
// clock plus the wake latency.
func SimulateTrace(cfg Config, src io.Reader) (*Stats, error) {
	return (&Simulator{Cfg: cfg}).simulateTrace(src)
}

// simulateTrace is SimulateTrace, taking its system like any simulation.
func (s *Simulator) simulateTrace(src io.Reader) (*Stats, error) {
	cfg := s.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(src, 1<<20)
	head := make([]byte, len(traceMagic)+4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("timing: reading trace header: %w", err)
	}
	if string(head[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("timing: bad trace magic %q", head[:len(traceMagic)])
	}
	if v := binary.LittleEndian.Uint32(head[len(traceMagic):]); v != traceVersion {
		return nil, fmt.Errorf("timing: unsupported trace version %d", v)
	}
	t := &traceSource{r: r, blocked: make([]bool, cfg.Cores)}
	t.routines = [2]isa.Routine{{Image: &isa.Image{}}, {Image: &isa.Image{Sync: true}}}
	st, err := s.simulate(&run{src: t, end: bbv.Marker{IsEnd: true},
		bind: func(sys *system) { t.sys = sys; sys.follow(t.next, false) }})
	if t.err != nil {
		return nil, t.err
	}
	return st, err
}

// traceSource plays a trace back as a run's order and retirer: each record
// turns back into the instruction it was written from, as far as the
// charge reads one — the fields the record carries.
type traceSource struct {
	r         *bufio.Reader
	sys       *system
	rec       [27]byte // the record last read
	err       error
	routines  [2]isa.Routine // plain and Sync
	instr     isa.Instr
	blk       isa.Block
	blocked   []bool
	lastCycle float64 // the core clock after the last charged record
}

// next notes the clock of the record just charged (0 before the first),
// then reads the next record and names its thread; a bad one sets t.err.
func (t *traceSource) next() (int, bool) {
	t.lastCycle = t.sys.cycle[t.rec[0]]
	if _, err := io.ReadFull(t.r, t.rec[:]); err != nil {
		if err != io.EOF {
			t.err = fmt.Errorf("timing: truncated trace record: %w", err)
		}
		return 0, false
	}
	tid := int(t.rec[0])
	if tid >= len(t.blocked) {
		t.err = fmt.Errorf("timing: trace thread %d exceeds %d cores", tid, len(t.blocked))
		return 0, false
	}
	if addr := binary.LittleEndian.Uint64(t.rec[19:]); addr > maxTraceAddr {
		t.err = fmt.Errorf("timing: trace address %#x beyond the %d-byte limit", addr, uint64(maxTraceAddr))
		return 0, false
	}
	return tid, true
}

// Retire returns the record last read. A thread's first record after one
// that parked it resumes no earlier than the previous record's core clock
// plus the wake latency.
func (t *traceSource) Retire(tid int) (exec.Retired, []int) {
	flags := t.rec[2]
	if t.blocked[tid] {
		if resume := t.lastCycle + t.sys.wakeLat; resume > t.sys.cycle[tid] {
			t.sys.cycle[tid] = resume
		}
	}
	t.blocked[tid] = flags&tfBlocked != 0
	t.instr.Op = isa.Op(t.rec[1])
	t.instr.Addr = binary.LittleEndian.Uint64(t.rec[3:])
	t.blk.Addr = binary.LittleEndian.Uint64(t.rec[11:])
	t.blk.Routine = &t.routines[0]
	if flags&tfSync != 0 {
		t.blk.Routine = &t.routines[1]
	}
	return exec.Retired{Instr: &t.instr, Block: &t.blk, MemAddr: binary.LittleEndian.Uint64(t.rec[19:]), Flow: exec.Flow{
		BlockEntry: flags&tfBlockEntry != 0,
		Taken:      flags&tfTaken != 0,
		Blocked:    flags&tfBlocked != 0,
	}}, nil
}
