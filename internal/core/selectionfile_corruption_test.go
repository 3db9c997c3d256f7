package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// typedArtifactErr reports whether err wraps one of the artifact
// sentinels.
func typedArtifactErr(err error) bool {
	return errors.Is(err, artifact.ErrCorrupt) ||
		errors.Is(err, artifact.ErrTruncated) ||
		errors.Is(err, artifact.ErrVersion)
}

// savedSelectionBytes analyzes a small program and returns its written
// selection file (v2 envelope).
func savedSelectionBytes(t testing.TB) []byte {
	t.Helper()
	p := testprog.Phased(4, 10, 150, omp.Passive)
	a, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sel.File().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSelectionEnvelopeShape: the written file is the v2 envelope, and
// it loads back.
func TestSelectionEnvelopeShape(t *testing.T) {
	data := savedSelectionBytes(t)
	for _, want := range []string{`"format": "looppoint-selection"`, `"version": 2`, `"fnv1a": "0x`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("envelope missing %s", want)
		}
	}
	if _, err := LoadSelectionFile(bytes.NewReader(data)); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

// TestSelectionCorruptionMatrixBitFlips flips one bit at every byte of a
// written selection file — envelope keys, checksum, payload, whitespace,
// trailing newline — and asserts each flip is rejected with a typed
// artifact error.
func TestSelectionCorruptionMatrixBitFlips(t *testing.T) {
	orig := savedSelectionBytes(t)
	for off := 0; off < len(orig); off++ {
		for _, bit := range []byte{0x01, 0x10} {
			data := append([]byte(nil), orig...)
			data[off] ^= bit
			_, err := LoadSelectionFile(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("bit flip 0x%02x at byte %d (%q) accepted", bit, off, orig[off])
			}
			if !typedArtifactErr(err) {
				t.Fatalf("bit flip 0x%02x at byte %d: untyped error %v", bit, off, err)
			}
		}
	}
}

// TestSelectionCorruptionMatrixTruncation cuts the file at every prefix
// and asserts a typed error — ErrTruncated once the envelope has begun.
// Cuts that only strip trailing whitespace are skipped: the JSON value is
// still complete and the checksum still validates, so nothing is lost.
func TestSelectionCorruptionMatrixTruncation(t *testing.T) {
	orig := savedSelectionBytes(t)
	body := len(bytes.TrimRight(orig, " \t\r\n"))
	for cut := 0; cut < body; cut++ {
		_, err := LoadSelectionFile(bytes.NewReader(orig[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
		if !typedArtifactErr(err) {
			t.Fatalf("truncation at %d bytes: untyped error %v", cut, err)
		}
	}
}

// TestSelectionVersionSkew: a bumped envelope version is ErrVersion.
func TestSelectionVersionSkew(t *testing.T) {
	data := savedSelectionBytes(t)
	skewed := strings.Replace(string(data), `"version": 2`, `"version": 9`, 1)
	if skewed == string(data) {
		t.Fatal("version field not found")
	}
	if _, err := LoadSelectionFile(strings.NewReader(skewed)); !errors.Is(err, artifact.ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// legacySelection is a pre-envelope bare selection file.
const legacySelection = `{"program":"x","threads":4,"total_filtered_instructions":100,
	"looppoints":[{"region":0,"start":{"kind":"start"},"end":{"kind":"end"},
	"filtered_instructions":100,"multiplier":1}]}`

// TestSelectionLegacyFormatAccepted: pre-envelope bare selection JSON
// still loads (checkpoint directories written by older builds).
func TestSelectionLegacyFormatAccepted(t *testing.T) {
	f, err := LoadSelectionFile(strings.NewReader(legacySelection))
	if err != nil {
		t.Fatalf("legacy file rejected: %v", err)
	}
	if f.Program != "x" || len(f.Points) != 1 {
		t.Fatalf("legacy decode wrong: %+v", f)
	}
}

// FuzzLoadSelectionFile: whatever bytes a selection file holds, the
// loader never panics, and every rejection wraps one of the artifact
// sentinels. The corpus is seeded from both corruption matrices — bit
// flips and truncations of a written file, sampled across its length —
// and from the legacy form.
func FuzzLoadSelectionFile(f *testing.F) {
	orig := savedSelectionBytes(f)
	f.Add(orig)
	f.Add([]byte(legacySelection))
	stride := max(len(orig)/64, 1)
	for off := 0; off < len(orig); off += stride {
		flipped := append([]byte(nil), orig...)
		flipped[off] ^= 0x10
		f.Add(flipped)
		f.Add(orig[:off])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := LoadSelectionFile(bytes.NewReader(data)); err != nil && !typedArtifactErr(err) {
			t.Fatalf("untyped error %v", err)
		}
	})
}
