package pinball

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// sentinel names the artifact sentinel err wraps ("" for none): the
// classification both decoders must agree on.
func sentinel(err error) string {
	for _, s := range []error{artifact.ErrCorrupt, artifact.ErrTruncated, artifact.ErrVersion} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return ""
}

// allocatedBy reports the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadFrom is a differential fuzzer over the two pinball decoders:
// Decode, the slab decoder every product path runs (Load, the region
// checkpoints), and ReadFrom, the streaming reference. On arbitrary
// bytes both must accept and produce deeply equal, re-verifying pinballs,
// or both reject with the same artifact sentinel; neither may panic, and
// neither may allocate out of proportion to its input — a length prefix
// the file cannot back must fail before anything is sized from it. Seeds:
// a valid pinball, degenerate inputs, and samples of the bit-flip and
// truncation matrices of corruption_test.go.
func FuzzReadFrom(f *testing.F) {
	p := testprog.Phased(2, 2, 30, omp.Passive)
	pb, err := Record(p, 5, 0)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pb.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte("LOOPPINB"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	for off := 0; off < len(valid); off += 41 {
		flipped := bytes.Clone(valid)
		flipped[off] ^= 0x10
		f.Add(flipped)
		f.Add(valid[:off])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var slab, stream *Pinball
		var slabErr, streamErr error
		budget := uint64(64*len(data) + 1<<20)
		if n := allocatedBy(func() { slab, slabErr = Decode(data) }); n > budget {
			t.Fatalf("Decode allocated %d bytes for a %d-byte input", n, len(data))
		}
		if n := allocatedBy(func() { stream, streamErr = ReadFrom(bytes.NewReader(data)) }); n > budget {
			t.Fatalf("ReadFrom allocated %d bytes for a %d-byte input", n, len(data))
		}
		if (slabErr == nil) != (streamErr == nil) || sentinel(slabErr) != sentinel(streamErr) {
			t.Fatalf("decoders disagree: Decode %v, ReadFrom %v", slabErr, streamErr)
		}
		if slabErr != nil {
			if sentinel(slabErr) == "" {
				t.Fatalf("untyped rejection: %v", slabErr)
			}
			return
		}
		if !reflect.DeepEqual(slab, stream) {
			t.Fatalf("decoders accept the same bytes as different pinballs:\n slab   %+v\n stream %+v", slab, stream)
		}
		// A successfully decoded pinball must re-verify.
		if verr := slab.Verify(); verr != nil {
			t.Fatalf("decoded pinball fails verification: %v", verr)
		}
	})
}
