package timing

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

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
// OnInstr every event of a per-instruction run (pinball.StepReplay) and
// Close when done.
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

// OnInstr appends the record of one executed instruction.
func (t *TraceWriter) OnInstr(ev *exec.Event) {
	if t.err != nil {
		return
	}
	var rec [27]byte
	rec[0] = uint8(ev.Tid)
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

	sys := s.acquire(nil)
	defer release(sys)
	sys.setDetail(true)
	blocked := make([]bool, cfg.Cores)
	var lastCycle float64

	// Each record is turned back into the event it was written from, as
	// far as cost reads one: the instruction and its block exist only as
	// the fields the record carries.
	routines := [2]isa.Routine{{Image: &isa.Image{}}, {Image: &isa.Image{Sync: true}}}
	var instr isa.Instr
	var blk isa.Block
	ev := exec.Event{Instr: &instr, Block: &blk}

	var rec [27]byte
	for {
		if _, err := io.ReadFull(r, rec[:]); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("timing: truncated trace record: %w", err)
		}
		tid := int(rec[0])
		if tid >= cfg.Cores {
			return nil, fmt.Errorf("timing: trace thread %d exceeds %d cores", tid, cfg.Cores)
		}
		flags := rec[2]
		instr.Op = isa.Op(rec[1])
		instr.Addr = binary.LittleEndian.Uint64(rec[3:])
		blk.Addr = binary.LittleEndian.Uint64(rec[11:])
		blk.Routine = &routines[0]
		if flags&tfSync != 0 {
			blk.Routine = &routines[1]
		}
		ev.Tid = tid
		ev.MemAddr = binary.LittleEndian.Uint64(rec[19:])
		ev.BlockEntry = flags&tfBlockEntry != 0
		ev.Taken = flags&tfTaken != 0
		ev.Blocked = flags&tfBlocked != 0
		if ev.MemAddr > maxTraceAddr {
			return nil, fmt.Errorf("timing: trace address %#x beyond the %d-byte limit", ev.MemAddr, uint64(maxTraceAddr))
		}
		if blocked[tid] {
			// Wake-up: resume after the record that (in trace order)
			// preceded this thread's return, plus the wake latency.
			if resume := lastCycle + float64(cfg.WakeCycles); resume > sys.cycle[tid] {
				sys.cycle[tid] = resume
			}
			blocked[tid] = false
		}
		sys.cycle[tid] += sys.cost(tid, &ev)
		lastCycle = sys.cycle[tid]
		if ev.Blocked {
			blocked[tid] = true
		}
	}
	return sys.stats(0), nil
}
