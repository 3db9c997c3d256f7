package exec

import (
	"errors"
	"reflect"
	"testing"

	"looppoint/internal/artifact"
)

// ioTestSnapshot builds a synthetic snapshot exercising every section of
// the codec: memory, multiple threads with stacks, futex queues in FIFO
// order, and opaque OS state.
func ioTestSnapshot() *Snapshot {
	s := &Snapshot{
		Mem:   []uint64{1, 0, 0xffffffffffffffff, 42},
		Steps: 977,
		Futexes: []FutexQueue{
			{Addr: 0x40, Tids: []int{2, 0, 1}},
			{Addr: 0x48, Tids: []int{3}},
		},
		OS: []uint64{7, 0, 9},
	}
	for i := 0; i < 3; i++ {
		t := ThreadSnapshot{State: ThreadState(i % 2), ICount: uint64(100 + i), Futex: uint64(0x40 * i)}
		for j := range t.R {
			t.R[j] = int64(i*64 + j - 5)
		}
		for j := range t.F {
			t.F[j] = float64(j) * 1.5
		}
		t.Cur = FrameRef{Image: i, Routine: 1, Block: 2, Index: 3}
		if i > 0 {
			t.Stack = []FrameRef{{Image: 0, Routine: 0, Block: 1, Index: 4}, {Image: 1, Routine: 2, Block: 0, Index: 0}}
		}
		s.Threads = append(s.Threads, t)
	}
	return s
}

// TestSnapshotSectionRoundTrip: the section decodes back to the same
// snapshot from the middle of a larger buffer — how pinballs and durable
// checkpoints embed it — and reports the offset one past itself.
func TestSnapshotSectionRoundTrip(t *testing.T) {
	s := ioTestSnapshot()
	const lead = 24
	data := s.AppendBinary(make([]byte, lead))
	if len(data) != lead+s.EncodedSize() {
		t.Fatalf("section size %d, want EncodedSize %d", len(data)-lead, s.EncodedSize())
	}
	data = append(data, 0xaa, 0xbb) // the embedding envelope's trailing bytes
	got, off, err := DecodeSnapshotAt(data, lead)
	if err != nil {
		t.Fatal(err)
	}
	if off != lead+s.EncodedSize() {
		t.Fatalf("end offset %d, want %d", off, lead+s.EncodedSize())
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("decoded snapshot differs from original")
	}
}

// TestSnapshotSectionBitFlips flips one bit at every byte offset. The
// section carries no checksum of its own (the embedding envelope's
// trailing FNV-1a catches payload damage), so a flip may decode — but it
// must never panic, never run past the input, and every rejection must
// be a typed artifact error with no snapshot alongside it.
func TestSnapshotSectionBitFlips(t *testing.T) {
	orig := ioTestSnapshot().AppendBinary(nil)
	rejected := 0
	for off := range orig {
		data := append([]byte(nil), orig...)
		data[off] ^= 1 << uint(off%8)
		got, end, err := DecodeSnapshotAt(data, 0)
		if err == nil {
			if got == nil || end > len(data) {
				t.Fatalf("flip at byte %d: snapshot %v, end offset %d of %d", off, got != nil, end, len(data))
			}
			continue
		}
		rejected++
		if got != nil {
			t.Fatalf("flip at byte %d returned a snapshot alongside error %v", off, err)
		}
		if !errors.Is(err, artifact.ErrCorrupt) && !errors.Is(err, artifact.ErrTruncated) {
			t.Fatalf("flip at byte %d: untyped error %v", off, err)
		}
	}
	if rejected == 0 {
		t.Fatal("no flip was rejected: the length-prefix checks are not running")
	}
}

// TestSnapshotSectionTruncation truncates at every 8-byte boundary and
// asserts typed classification: a cut section is ErrTruncated (or
// ErrCorrupt where a length prefix is what remains).
func TestSnapshotSectionTruncation(t *testing.T) {
	orig := ioTestSnapshot().AppendBinary(nil)
	for end := 0; end < len(orig); end += 8 {
		_, _, err := DecodeSnapshotAt(orig[:end], 0)
		if err == nil {
			t.Fatalf("truncation at byte %d accepted", end)
		}
		if !errors.Is(err, artifact.ErrTruncated) && !errors.Is(err, artifact.ErrCorrupt) {
			t.Fatalf("truncation at byte %d: wrong classification %v", end, err)
		}
	}
}
