package exec

import (
	"encoding/binary"
	"fmt"
	"slices"

	"looppoint/internal/artifact"
	"looppoint/internal/isa"
)

// A record never straddles two chunks: a chunk is started while the
// current one still has blockLogMaxRecord bytes free.
const (
	blockLogChunkBytes = 64 << 10
	blockLogMaxRecord  = 5 * binary.MaxVarintLen64
)

// blockLogChunk is one link of the log: buf[:n] holds whole records.
type blockLogChunk struct {
	next *blockLogChunk
	n    int
	buf  [blockLogChunkBytes]byte
}

// BlockLog is a BlockObserver that keeps a run's block-event stream — Tid,
// Block, FirstIdx, Entries and Instrs of each event; not Blocked or Woken —
// so that the analysis can read the stream afterwards (Reader) without
// executing the program again — in the same process, or in another one
// through the saved form AppendBinary writes and DecodeBlockLog reads.
//
// The log is a list of fixed-size chunks of uvarint records. The common
// event — same thread as the event before it, one whole pass of the block
// from instruction 0 — is the single value Block.Global<<1 (one byte for a
// program's first 64 blocks); any other event is Block.Global<<1|1, Tid,
// FirstIdx, Entries, Instrs. Decoding starts at thread 0.
type BlockLog struct {
	prog       *isa.Program
	head, tail *blockLogChunk
	tid        int // thread of the last event logged
}

// NewBlockLog returns an empty log for a run of p.
func NewBlockLog(p *isa.Program) *BlockLog {
	return &BlockLog{prog: p}
}

// OnBlock implements BlockObserver.
func (l *BlockLog) OnBlock(ev *BlockEvent) {
	c := l.tail
	if c == nil || len(c.buf)-c.n < blockLogMaxRecord {
		c = l.grow()
	}
	g := uint64(ev.Block.Global) << 1
	if ev.Tid == l.tid && ev.FirstIdx == 0 && ev.Entries == 1 && ev.Instrs == uint64(len(ev.Block.Instrs)) {
		c.n += binary.PutUvarint(c.buf[c.n:], g)
		return
	}
	l.tid = ev.Tid
	for _, v := range [...]uint64{g | 1, uint64(ev.Tid), uint64(ev.FirstIdx), ev.Entries, ev.Instrs} {
		c.n += binary.PutUvarint(c.buf[c.n:], v)
	}
}

// grow links a fresh, empty chunk at the log's tail and returns it.
func (l *BlockLog) grow() *blockLogChunk {
	c := &blockLogChunk{}
	if l.tail == nil {
		l.head = c
	} else {
		l.tail.next = c
	}
	l.tail = c
	return c
}

// BlockLogReader walks a log's records in order. A consumer takes the
// common records at the front of Records itself, with CommonRecord, whose
// step inlines, and hands the rest back to Next, which returns the record
// after them as a full block event.
type BlockLogReader struct {
	rec    []byte         // the current chunk's records not yet read
	next   *blockLogChunk // the chunk after it
	blocks []*isa.Block   // by Block.Global
	ev     BlockEvent     // the record Next read; its Tid is the current thread
}

// Reader returns a reader at the log's first record. The log keeps its
// records, so it can be read more than once.
func (l *BlockLog) Reader() BlockLogReader {
	return BlockLogReader{next: l.head, blocks: l.prog.Blocks()}
}

// Records returns the current chunk's records after Next's last, and the
// thread a common record among them continues.
func (r *BlockLogReader) Records() (rec []byte, tid int) { return r.rec, r.ev.Tid }

// CommonRecord decodes the record at the front of rec if it is a common one
// — the current thread's one whole pass of block g, at whatever uvarint
// length — and take[g] is set; it returns g and the records after it.
// Otherwise ok is false, and the record is Next's.
func CommonRecord(rec []byte, take []bool) (g int, rest []byte, ok bool) {
	var v uint64
	for i, b := range rec {
		v |= uint64(b&0x7f) << (7 * uint(i) & 63) // as uvarint's
		if b < 0x80 {
			if v&1 != 0 || !take[v>>1] {
				break
			}
			return int(v >> 1), rec[i+1:], true
		}
	}
	return 0, rec, false
}

// Next returns the record at the front of rest, the tail of Records the
// consumer did not take — or the next chunk's first, when rest is empty —
// as a block event, or nil at the log's end. The event is the reader's:
// valid until the next call.
func (r *BlockLogReader) Next(rest []byte) *BlockEvent {
	for len(rest) == 0 {
		if r.next == nil {
			return nil
		}
		rest, r.next = r.next.buf[:r.next.n], r.next.next
	}
	v, rest := uvarint(rest)
	ev := &r.ev
	ev.Block = r.blocks[v>>1]
	ev.FirstIdx, ev.Entries, ev.Instrs = 0, 1, uint64(len(ev.Block.Instrs))
	if v&1 != 0 {
		var tid, first uint64
		tid, rest = uvarint(rest)
		first, rest = uvarint(rest)
		ev.Entries, rest = uvarint(rest)
		ev.Instrs, rest = uvarint(rest)
		ev.Tid, ev.FirstIdx = int(tid), int(first)
	}
	r.rec = rest
	return ev
}

// uvarint decodes the value at the front of rec, which holds whole
// records, and returns the bytes after it.
func uvarint(rec []byte) (v uint64, rest []byte) {
	if b := rec[0]; b < 0x80 {
		return uint64(b), rec[1:]
	}
	for i, b := range rec {
		// & 63 spares the shift its overflow check: a uvarint is at most
		// ten bytes.
		v |= uint64(b&0x7f) << (7 * uint(i) & 63)
		if b < 0x80 {
			return v, rec[i+1:]
		}
	}
	return v, nil
}

// AppendBinary appends the log's saved form to dst: its records, chunk
// after chunk, then the little-endian FNV-1a checksum of those bytes. The
// form has no header: DecodeBlockLog reads it back against the program and
// the schedule of the recording it was logged on.
func (l *BlockLog) AppendBinary(dst []byte) []byte {
	n := 8
	for c := l.head; c != nil; c = c.next {
		n += c.n
	}
	dst = slices.Grow(dst, n)
	start := len(dst)
	for c := l.head; c != nil; c = c.next {
		dst = append(dst, c.buf[:c.n]...)
	}
	return binary.LittleEndian.AppendUint64(dst, artifact.Checksum(dst[start:]))
}

// DecodeBlockLog reads a log saved by AppendBinary for a recording of p
// under sched. Bytes that end early, inside the trailer or a record, are
// artifact.ErrTruncated. A checksum mismatch is artifact.ErrCorrupt, and so
// is any record a reader could not hand over as one event of a run of p (a
// block, thread or first index outside the program, or counts no event
// has), and a log whose per-thread instruction runs, merged, are not sched:
// the log of another recording.
func DecodeBlockLog(p *isa.Program, sched Schedule, data []byte) (*BlockLog, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("exec: block log: %w at byte offset %d", artifact.ErrTruncated, len(data))
	}
	body := data[:len(data)-8]
	if got, want := binary.LittleEndian.Uint64(data[len(body):]), artifact.Checksum(body); got != want {
		return nil, fmt.Errorf("exec: block log checksum mismatch (file %#x, computed %#x): %w", got, want, artifact.ErrCorrupt)
	}
	blocks := p.Blocks() // by Block.Global
	l := NewBlockLog(p)
	var (
		off, span int    // the next record; the first one not yet copied into a chunk
		err       error  // the first failure
		run       int    // thread of the schedule entry being matched
		left      uint64 // its instructions not yet matched
	)
	next := func() uint64 {
		v, n := binary.Uvarint(body[off:])
		if n > 0 {
			off += n
		} else if err == nil && n == 0 {
			err = fmt.Errorf("exec: block log record: %w at byte offset %d", artifact.ErrTruncated, len(body))
		} else if err == nil {
			err = fmt.Errorf("exec: block log: uvarint at byte offset %d overflows: %w", off, artifact.ErrCorrupt)
		}
		return v
	}
	flush := func(end int) {
		c := l.grow()
		c.n = copy(c.buf[:], body[span:end])
		span = end
	}
	// take matches n instructions of thread tid against the schedule,
	// merging back-to-back entries of one thread.
	take := func(tid int, n uint64) bool {
		for n > 0 {
			for left == 0 {
				if len(sched) == 0 {
					return false
				}
				run, left = sched[0].Tid, uint64(sched[0].N)
				sched = sched[1:]
			}
			if run != tid {
				return false
			}
			k := min(n, left)
			n, left = n-k, left-k
		}
		return true
	}
	for off < len(body) {
		start := off
		g := uint64(body[off]) // the common record is this one byte
		if g < 0x80 {
			off++
		} else {
			g = next()
		}
		if err == nil && g>>1 >= uint64(len(blocks)) {
			err = fmt.Errorf("exec: block log record at byte offset %d: block %d outside the program: %w", start, g>>1, artifact.ErrCorrupt)
		}
		if err != nil {
			return nil, err
		}
		instrs := uint64(len(blocks[g>>1].Instrs))
		if g&1 != 0 {
			tid, firstIdx, entries, n := next(), next(), next(), next()
			if err == nil && (tid >= uint64(p.NumThreads()) || !eventCounts(instrs, firstIdx, entries, n)) {
				err = fmt.Errorf("exec: block log record at byte offset %d: thread %d, first index %d, %d entries and %d instructions are no event of block %d: %w",
					start, tid, firstIdx, entries, n, g>>1, artifact.ErrCorrupt)
			}
			if err != nil {
				return nil, err
			}
			l.tid, instrs = int(tid), n
		}
		if l.tid == run && instrs <= left {
			left -= instrs // more of the current entry: the common case
		} else if !take(l.tid, instrs) {
			return nil, fmt.Errorf("exec: block log record at byte offset %d: thread %d's %d instructions are not the schedule's next: %w", start, l.tid, instrs, artifact.ErrCorrupt)
		}
		if off-span > blockLogChunkBytes {
			flush(start)
		}
	}
	if left+sched.Steps() > 0 {
		return nil, fmt.Errorf("exec: block log ends %d instructions before its schedule: %w", left+sched.Steps(), artifact.ErrCorrupt)
	}
	if span < len(body) {
		flush(len(body))
	}
	return l, nil
}

// eventCounts reports whether an event of a pass-instruction block that
// starts at firstIdx can enter it entries times and retire instrs: one that
// enters nothing stays inside the pass it resumed, one that enters the
// block retires exactly the instructions of those passes, the last possibly
// cut short.
func eventCounts(pass, firstIdx, entries, instrs uint64) bool {
	if firstIdx >= pass {
		return false
	}
	var lead uint64 // the resumed partial pass
	if firstIdx > 0 {
		lead = pass - firstIdx
	}
	if entries == 0 {
		return firstIdx > 0 && instrs > 0 && instrs <= lead
	}
	return instrs > lead && (instrs-lead-1)/pass+1 == entries
}
