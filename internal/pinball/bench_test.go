package pinball

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// benchPinball records one mid-sized pinball shared by every benchmark
// in this file: enough memory, schedule, and syscall payload that the
// encoder's per-byte costs dominate the fixed header work.
func benchPinball(b *testing.B) *Pinball {
	b.Helper()
	p := testprog.WithSyscalls(8, 400, omp.Passive)
	pb, err := Record(p, 77, 256)
	if err != nil {
		b.Fatal(err)
	}
	return pb
}

// BenchmarkPinballWrite measures serialization throughput (encode plus
// whole-payload checksum) into an in-memory sink.
func BenchmarkPinballWrite(b *testing.B) {
	pb := benchPinball(b)
	var buf bytes.Buffer
	if err := pb.Write(&buf); err != nil {
		b.Fatal(err)
	}
	size := buf.Len()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pb.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPinballRead measures the load path from an in-memory byte
// slice: slab decode plus integrity verification, the work Load
// performs after the file is in memory.
func BenchmarkPinballRead(b *testing.B) {
	pb := benchPinball(b)
	data := pb.AppendBinary(nil)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPinballReadStream measures the retained streaming loader on
// the same bytes — the safe path's cost relative to the slab decoder.
func BenchmarkPinballReadStream(b *testing.B) {
	pb := benchPinball(b)
	data := pb.AppendBinary(nil)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFrom(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPinballSaveLoad measures the full file round trip through the
// OS — the shape lpprofile -save-regions and lpsim -checkpoint pay per
// region pinball.
func BenchmarkPinballSaveLoad(b *testing.B) {
	pb := benchPinball(b)
	path := filepath.Join(b.TempDir(), "bench.pinball")
	if err := pb.Save(path); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pb.Save(path); err != nil {
			b.Fatal(err)
		}
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}
