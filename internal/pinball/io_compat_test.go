package pinball

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// streamWriter is a faithful copy of the streaming encoder the
// repository shipped before the slab fast path: a bufio sink with a
// one-byte-at-a-time FNV-1a over every payload byte. It exists only to
// pin AppendBinary byte-identical to the historical format.
type streamWriter struct {
	w   *bufio.Writer
	sum uint64
	err error
}

func (w *streamWriter) raw(b []byte) {
	if w.err != nil {
		return
	}
	for _, c := range b {
		w.sum ^= uint64(c)
		w.sum *= 1099511628211
	}
	_, w.err = w.w.Write(b)
}

func (w *streamWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.raw(buf[:])
}

func (w *streamWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.raw([]byte(s))
}

func (w *streamWriter) marker(m bbv.Marker) {
	w.u64(m.PC)
	w.u64(m.Count)
	if m.IsEnd {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *streamWriter) frame(f exec.FrameRef) {
	w.u64(uint64(f.Image))
	w.u64(uint64(f.Routine))
	w.u64(uint64(f.Block))
	w.u64(uint64(f.Index))
}

func writeStreamed(pb *Pinball, dst io.Writer) error {
	w := &streamWriter{w: bufio.NewWriter(dst), sum: 14695981039346656037}
	if _, err := w.w.WriteString(magic); err != nil {
		return err
	}
	w.u64(uint64(version))
	w.str(pb.Name)
	w.u64(uint64(pb.NumThreads))
	w.u64(pb.MemChecksum)
	w.u64(pb.FinalChecksum)
	w.u64(pb.WarmupSteps)
	w.u64(pb.StartHitsAtSnapshot)
	w.u64(pb.EndHitsAtSnapshot)
	w.marker(pb.Region.Start)
	w.marker(pb.Region.End)
	w.marker(pb.Region.WarmupStart)
	s := pb.Start
	w.u64(s.Steps)
	w.u64(uint64(len(s.Mem)))
	for _, word := range s.Mem {
		w.u64(word)
	}
	w.u64(uint64(len(s.Threads)))
	for _, t := range s.Threads {
		for _, r := range t.R {
			w.u64(uint64(r))
		}
		for _, f := range t.F {
			w.u64(math.Float64bits(f))
		}
		w.u64(uint64(t.State))
		w.frame(t.Cur)
		w.u64(uint64(len(t.Stack)))
		for _, fr := range t.Stack {
			w.frame(fr)
		}
		w.u64(t.ICount)
		w.u64(t.Futex)
	}
	w.u64(uint64(len(s.Futexes)))
	for _, q := range s.Futexes {
		w.u64(q.Addr)
		w.u64(uint64(len(q.Tids)))
		for _, tid := range q.Tids {
			w.u64(uint64(tid))
		}
	}
	w.u64(uint64(len(s.OS)))
	for _, word := range s.OS {
		w.u64(word)
	}
	w.u64(uint64(len(pb.Syscalls)))
	for _, log := range pb.Syscalls {
		w.u64(uint64(len(log)))
		for _, v := range log {
			w.u64(uint64(v))
		}
	}
	w.u64(uint64(len(pb.Schedule)))
	for _, e := range pb.Schedule {
		w.u64(uint64(e.Tid))
		w.u64(uint64(e.N))
	}
	if w.err != nil {
		return w.err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], w.sum)
	if _, err := w.w.Write(buf[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// compatPinballs records pinballs over varied shapes: thread counts,
// schedules, syscall traffic, and a region pinball with warmup (stack
// depth and marker fields populated).
func compatPinballs(t *testing.T) []*Pinball {
	t.Helper()
	var pbs []*Pinball
	for _, rec := range []struct {
		name string
		make func() (*Pinball, error)
	}{
		{"phased", func() (*Pinball, error) { return Record(testprog.Phased(2, 2, 30, omp.Passive), 5, 0) }},
		{"syscalls", func() (*Pinball, error) { return Record(testprog.WithSyscalls(4, 60, omp.Passive), 11, 16) }},
		{"active", func() (*Pinball, error) { return Record(testprog.Phased(3, 1, 20, omp.Active), 1, 8) }},
	} {
		pb, err := rec.make()
		if err != nil {
			t.Fatalf("%s: %v", rec.name, err)
		}
		pbs = append(pbs, pb)
	}
	return pbs
}

// TestAppendBinaryMatchesStreamingWriter pins the slab encoder
// byte-for-byte to the historical streaming writer across varied
// pinball shapes, and EncodedSize to the exact output length.
func TestAppendBinaryMatchesStreamingWriter(t *testing.T) {
	for i, pb := range compatPinballs(t) {
		var want bytes.Buffer
		if err := writeStreamed(pb, &want); err != nil {
			t.Fatal(err)
		}
		got := pb.AppendBinary(nil)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("pinball %d: slab encoding differs from streaming encoding (%d vs %d bytes)", i, len(got), want.Len())
		}
		if sz := pb.EncodedSize(); sz != len(got) {
			t.Fatalf("pinball %d: EncodedSize %d, actual %d", i, sz, len(got))
		}
	}
}

// TestDecodeMatchesReadFrom: both loaders accept the same bytes and
// produce deeply equal pinballs.
func TestDecodeMatchesReadFrom(t *testing.T) {
	for i, pb := range compatPinballs(t) {
		data := pb.AppendBinary(nil)
		fromStream, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("pinball %d: ReadFrom: %v", i, err)
		}
		fromSlab, err := Decode(data)
		if err != nil {
			t.Fatalf("pinball %d: Decode: %v", i, err)
		}
		if !reflect.DeepEqual(fromStream, fromSlab) {
			t.Fatalf("pinball %d: Decode and ReadFrom disagree", i)
		}
		if !reflect.DeepEqual(fromSlab.Start, pb.Start) {
			t.Fatalf("pinball %d: decoded snapshot differs from original", i)
		}
	}
}

// TestGoldenPinballBytes pins the on-disk format against a committed
// golden file, so any future encoder change that silently alters the
// byte layout (magic, version, field order, checksum) fails here.
// Regenerate with: go test ./internal/pinball/ -run Golden -update
func TestGoldenPinballBytes(t *testing.T) {
	pb, err := Record(testprog.Phased(2, 2, 30, omp.Passive), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := pb.AppendBinary(nil)
	golden := filepath.Join("testdata", "phased-2x2x30-seed5.pinball")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding differs from golden file (%d vs %d bytes): the on-disk format changed", len(got), len(want))
	}
	if _, err := Load(golden); err != nil {
		t.Fatalf("Load golden: %v", err)
	}
}

// TestAppendBinarySteadyStateAllocs: encoding into a buffer with enough
// capacity — the steady state of a save loop that reuses its slab —
// performs zero heap allocations.
func TestAppendBinarySteadyStateAllocs(t *testing.T) {
	pb, err := Record(testprog.Phased(2, 2, 30, omp.Passive), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := pb.AppendBinary(nil)
	if allocs := testing.AllocsPerRun(20, func() {
		buf = pb.AppendBinary(buf[:0])
	}); allocs != 0 {
		t.Fatalf("steady-state AppendBinary: %.1f allocs/op, want 0", allocs)
	}
}
