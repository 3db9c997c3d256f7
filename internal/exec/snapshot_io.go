package exec

import (
	"encoding/binary"
	"fmt"
	"math"

	"looppoint/internal/artifact"
)

// Binary serialization for Snapshot: the section form (EncodedSize /
// AppendBinary / DecodeSnapshotAt) is a raw little-endian u64 payload
// with no header, embedded verbatim inside larger envelopes — the
// pinball format and the durable checkpoint/progress files both carry
// it, so the bytes here are pinned by the pinball golden files, and it
// is versioned and checksummed by whatever envelope embeds it.
//
// The decoder classifies failures into the artifact package's typed
// sentinels: artifact.ErrTruncated (with the absolute byte offset) for
// input that ends early, artifact.ErrCorrupt for implausible lengths.

// Plausibility caps for the snapshot section. A declared length past its
// cap is corruption, not truncation: no well-formed snapshot is that
// large.
const (
	snapMaxMemWords   = 1 << 32
	snapMaxThreads    = 1 << 16
	snapMaxStackDepth = 1 << 20
	snapMaxOSWords    = 1 << 20
)

// EncodedSize returns the exact serialized length of the snapshot
// section in bytes. AppendBinary into a buffer with at least this much
// spare capacity performs no allocation.
func (s *Snapshot) EncodedSize() int {
	n := 8 + 8 + 8*len(s.Mem) // Steps, memLen, mem words
	n += 8                    // thread count
	for i := range s.Threads {
		// R[32] + F[32] + State + Cur frame (4) + stack len + ICount + Futex
		n += (32 + 32 + 1 + 4 + 1 + 1 + 1) * 8
		n += 4 * 8 * len(s.Threads[i].Stack)
	}
	n += 8 // futex queue count
	for _, q := range s.Futexes {
		n += 2*8 + 8*len(q.Tids) // addr + waiter count + tids
	}
	n += 8 + 8*len(s.OS) // OS state len + words
	return n
}

// AppendBinary appends the snapshot section to buf and returns the
// extended slice: Steps, memory, per-thread contexts, futex wait queues,
// and opaque OS state, all as little-endian u64 words.
func (s *Snapshot) AppendBinary(buf []byte) []byte {
	buf = snapU64(buf, s.Steps)
	buf = snapU64(buf, uint64(len(s.Mem)))
	for _, w := range s.Mem {
		buf = snapU64(buf, w)
	}
	buf = snapU64(buf, uint64(len(s.Threads)))
	for i := range s.Threads {
		t := &s.Threads[i]
		for _, r := range t.R {
			buf = snapU64(buf, uint64(r))
		}
		for _, f := range t.F {
			buf = snapU64(buf, math.Float64bits(f))
		}
		buf = snapU64(buf, uint64(t.State))
		buf = snapFrame(buf, t.Cur)
		buf = snapU64(buf, uint64(len(t.Stack)))
		for _, fr := range t.Stack {
			buf = snapFrame(buf, fr)
		}
		buf = snapU64(buf, t.ICount)
		buf = snapU64(buf, t.Futex)
	}
	buf = snapU64(buf, uint64(len(s.Futexes)))
	for _, q := range s.Futexes {
		buf = snapU64(buf, q.Addr)
		buf = snapU64(buf, uint64(len(q.Tids)))
		for _, tid := range q.Tids {
			buf = snapU64(buf, uint64(tid))
		}
	}
	buf = snapU64(buf, uint64(len(s.OS)))
	for _, w := range s.OS {
		buf = snapU64(buf, w)
	}
	return buf
}

func snapU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func snapFrame(b []byte, f FrameRef) []byte {
	b = snapU64(b, uint64(f.Image))
	b = snapU64(b, uint64(f.Routine))
	b = snapU64(b, uint64(f.Block))
	return snapU64(b, uint64(f.Index))
}

// snapDecoder is a bounds-checked cursor over a byte slice holding a
// snapshot section, possibly embedded mid-file: offsets in truncation
// errors are absolute so the message names the real end of input.
type snapDecoder struct {
	data []byte
	off  int
	err  error
}

func (d *snapDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.err = fmt.Errorf("%w at byte offset %d", artifact.ErrTruncated, len(d.data))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

func (d *snapDecoder) i64() int64 { return int64(d.u64()) }

// remaining reports how many u64 words are left in the input; length
// prefixes are checked against it so a declared count beyond the input
// fails as truncation before any allocation is sized from it.
func (d *snapDecoder) remaining() uint64 { return uint64(len(d.data)-d.off) / 8 }

func (d *snapDecoder) truncated() {
	if d.err == nil {
		d.err = fmt.Errorf("%w at byte offset %d", artifact.ErrTruncated, len(d.data))
	}
}

func (d *snapDecoder) frame() FrameRef {
	return FrameRef{
		Image:   int(d.u64()),
		Routine: int(d.u64()),
		Block:   int(d.u64()),
		Index:   int(d.u64()),
	}
}

// DecodeSnapshotAt decodes a snapshot section from data starting at off
// and returns the snapshot and the offset one past the section. Errors
// wrap the artifact sentinels; truncation messages carry the absolute
// byte offset of the end of data.
func DecodeSnapshotAt(data []byte, off int) (*Snapshot, int, error) {
	d := &snapDecoder{data: data, off: off}
	s := &Snapshot{}
	s.Steps = d.u64()
	memLen := d.u64()
	if d.err == nil && memLen > snapMaxMemWords {
		return nil, d.off, fmt.Errorf("implausible memory size %d: %w", memLen, artifact.ErrCorrupt)
	}
	if d.err == nil {
		if memLen > d.remaining() {
			d.truncated()
		} else {
			s.Mem = make([]uint64, memLen)
			for i := range s.Mem {
				s.Mem[i] = binary.LittleEndian.Uint64(d.data[d.off:])
				d.off += 8
			}
		}
	}
	nThreads := d.u64()
	if d.err == nil && nThreads > snapMaxThreads {
		return nil, d.off, fmt.Errorf("implausible thread count %d: %w", nThreads, artifact.ErrCorrupt)
	}
	for i := uint64(0); i < nThreads && d.err == nil; i++ {
		var t ThreadSnapshot
		for j := range t.R {
			t.R[j] = d.i64()
		}
		for j := range t.F {
			t.F[j] = math.Float64frombits(d.u64())
		}
		t.State = ThreadState(d.u64())
		t.Cur = d.frame()
		stackLen := d.u64()
		if d.err == nil && stackLen > snapMaxStackDepth {
			return nil, d.off, fmt.Errorf("implausible stack depth %d: %w", stackLen, artifact.ErrCorrupt)
		}
		if d.err == nil && stackLen > 0 {
			if 4*stackLen > d.remaining() {
				d.truncated()
			} else {
				t.Stack = make([]FrameRef, stackLen)
				for j := range t.Stack {
					t.Stack[j] = d.frame()
				}
			}
		}
		t.ICount = d.u64()
		t.Futex = d.u64()
		s.Threads = append(s.Threads, t)
	}
	nQueues := d.u64()
	if d.err == nil && nQueues > snapMaxThreads {
		return nil, d.off, fmt.Errorf("implausible futex queue count %d: %w", nQueues, artifact.ErrCorrupt)
	}
	for i := uint64(0); i < nQueues && d.err == nil; i++ {
		q := FutexQueue{Addr: d.u64()}
		nWait := d.u64()
		if d.err == nil && nWait > snapMaxThreads {
			return nil, d.off, fmt.Errorf("implausible futex waiter count %d: %w", nWait, artifact.ErrCorrupt)
		}
		if d.err == nil {
			if nWait > d.remaining() {
				d.truncated()
			} else {
				q.Tids = make([]int, nWait)
				for j := range q.Tids {
					q.Tids[j] = int(d.u64())
				}
			}
		}
		s.Futexes = append(s.Futexes, q)
	}
	nOS := d.u64()
	if d.err == nil && nOS > snapMaxOSWords {
		return nil, d.off, fmt.Errorf("implausible OS state length %d: %w", nOS, artifact.ErrCorrupt)
	}
	if d.err == nil && nOS > 0 {
		if nOS > d.remaining() {
			d.truncated()
		} else {
			s.OS = make([]uint64, nOS)
			for i := range s.OS {
				s.OS[i] = binary.LittleEndian.Uint64(d.data[d.off:])
				d.off += 8
			}
		}
	}
	if d.err != nil {
		return nil, d.off, d.err
	}
	return s, d.off, nil
}
