package exec

import (
	"encoding/binary"

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
// so that an observer that could not ride the run (its break PCs come from
// the run's own outcome) can be fed the stream afterwards, by Play, without
// executing the program again.
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
		c = &blockLogChunk{}
		if l.tail == nil {
			l.head = c
		} else {
			l.tail.next = c
		}
		l.tail = c
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

// Play re-emits the logged stream to the observers and empties the log,
// dropping each chunk once it is consumed. Break PCs are taken from the
// observers as AddBlockObserver takes them, and StepBlock's break-PC rule is
// applied after the fact: an event that enters a break block (Entries > 0)
// becomes its leading partial pass if FirstIdx > 0, then for every entry
// {FirstIdx 0, Entries 1, Instrs 1} followed by the rest of that pass,
// {FirstIdx 1, Entries 0}. Instructions, their order and the entries are
// the logged run's; as between any two block-tier runs of one execution,
// only where a pass is cut into events may differ from a replay's stream.
func (l *BlockLog) Play(obs ...BlockObserver) {
	blocks := l.prog.Blocks() // by Block.Global
	brk := make([]bool, len(blocks))
	for _, o := range obs {
		markBreakPCs(l.prog, brk, o)
	}
	var ev BlockEvent
	emit := func(firstIdx int, entries, instrs uint64) {
		ev.FirstIdx, ev.Entries, ev.Instrs = firstIdx, entries, instrs
		for _, o := range obs {
			o.OnBlock(&ev)
		}
	}
	c := l.head
	l.head, l.tail, l.tid = nil, nil, 0
	for ; c != nil; c = c.next {
		rec := c.buf[:c.n]
		next := func() uint64 {
			v, n := binary.Uvarint(rec)
			rec = rec[n:]
			return v
		}
		for len(rec) > 0 {
			g := next()
			ev.Block = blocks[g>>1]
			pass := uint64(len(ev.Block.Instrs))
			firstIdx, entries, instrs := 0, uint64(1), pass
			if g&1 != 0 {
				ev.Tid = int(next())
				firstIdx, entries, instrs = int(next()), next(), next()
			}
			if entries == 0 || !brk[g>>1] {
				emit(firstIdx, entries, instrs)
				continue
			}
			if firstIdx > 0 {
				lead := pass - uint64(firstIdx)
				emit(firstIdx, 0, lead)
				instrs -= lead
			}
			for ; entries > 0; entries-- {
				n := min(pass, instrs) // this entry's pass, possibly cut short
				emit(0, 1, 1)
				if n > 1 {
					emit(1, 0, n-1)
				}
				instrs -= n
			}
		}
	}
}
