package pinball

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// typed reports whether err wraps one of the artifact sentinels.
func typed(err error) bool {
	return errors.Is(err, artifact.ErrCorrupt) ||
		errors.Is(err, artifact.ErrTruncated) ||
		errors.Is(err, artifact.ErrVersion)
}

// savedPinballBytes records a small pinball and returns its serialized
// form.
func savedPinballBytes(t *testing.T) []byte {
	t.Helper()
	p := testprog.Phased(2, 2, 30, omp.Passive)
	pb, err := Record(p, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loaders enumerates every in-memory decode path; the corruption and
// truncation matrices run the full offset sweep against each so the
// slab decoder inherits the exact classification guarantees of the
// streaming reader.
var loaders = []struct {
	name string
	load func([]byte) (*Pinball, error)
}{
	{"stream", func(b []byte) (*Pinball, error) { return ReadFrom(bytes.NewReader(b)) }},
	{"slab", Decode},
}

// TestCorruptionMatrixBitFlips flips one bit at every byte offset of a
// saved pinball — header, snapshot, syscall logs, schedule, and trailing
// hash — and asserts every flip is rejected with a typed artifact error
// by both decode paths. Single-byte damage can never slip through: the
// running FNV-1a state transformation is injective, so one changed
// payload byte always changes the trailing hash, and flips in the hash
// itself fail the comparison.
func TestCorruptionMatrixBitFlips(t *testing.T) {
	orig := savedPinballBytes(t)
	for _, ld := range loaders {
		t.Run(ld.name, func(t *testing.T) {
			for off := 0; off < len(orig); off++ {
				data := append([]byte(nil), orig...)
				data[off] ^= 0x10
				_, err := ld.load(data)
				if err == nil {
					t.Fatalf("bit flip at byte %d accepted", off)
				}
				if !typed(err) {
					t.Fatalf("bit flip at byte %d: untyped error %v", off, err)
				}
			}
		})
	}
}

// TestCorruptionMatrixTruncation cuts the saved pinball at every prefix
// length and asserts both decode paths report ErrTruncated (with the
// byte offset in the message) for all of them.
func TestCorruptionMatrixTruncation(t *testing.T) {
	orig := savedPinballBytes(t)
	for _, ld := range loaders {
		t.Run(ld.name, func(t *testing.T) {
			for cut := 0; cut < len(orig); cut++ {
				_, err := ld.load(orig[:cut])
				if !errors.Is(err, artifact.ErrTruncated) {
					t.Fatalf("truncation at %d bytes: err = %v, want ErrTruncated", cut, err)
				}
			}
		})
	}
}

// TestVersionSkewIsTyped: a future version number is ErrVersion, not a
// generic failure, on both decode paths.
func TestVersionSkewIsTyped(t *testing.T) {
	orig := savedPinballBytes(t)
	data := append([]byte(nil), orig...)
	data[len(magic)] = 99 // version field is the first u64 after the magic
	for _, ld := range loaders {
		if _, err := ld.load(data); !errors.Is(err, artifact.ErrVersion) {
			t.Fatalf("%s: err = %v, want ErrVersion", ld.name, err)
		}
	}
}

// TestLoadReportsPathAndOffset: file-level loads carry the path, and
// truncation failures carry the byte offset.
func TestLoadReportsPathAndOffset(t *testing.T) {
	orig := savedPinballBytes(t)
	path := filepath.Join(t.TempDir(), "cut.pinball")
	if err := os.WriteFile(path, orig[:len(orig)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if !errors.Is(err, artifact.ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	msg := err.Error()
	if !bytes.Contains([]byte(msg), []byte(path)) {
		t.Errorf("error %q does not name the file", msg)
	}
	if !bytes.Contains([]byte(msg), []byte("byte offset")) {
		t.Errorf("error %q does not carry the byte offset", msg)
	}
}
