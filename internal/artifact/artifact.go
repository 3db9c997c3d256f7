// Package artifact defines the shared integrity vocabulary for every
// on-disk artifact this repository produces — pinballs, selection files,
// the campaign journal and the Store of finished results. Checkpoints are
// what make LoopPoint's region simulations independent (paper Section
// III-J); once they are archived and shared across machines (the
// checkpoint-sharing workflow), the pipeline has to treat their bytes as
// untrusted input. Loaders classify failures into three typed sentinels so
// callers can choose a policy per class: quarantine corrupt files,
// re-fetch truncated ones, and refuse version skew outright.
package artifact

import "errors"

// Typed load failures. Loaders wrap these with %w plus file path and
// byte offset; callers match with errors.Is.
var (
	// ErrCorrupt means the bytes are structurally present but wrong:
	// bad magic, checksum mismatch, implausible lengths, or payload
	// validation failure. Retrying the same file cannot help.
	ErrCorrupt = errors.New("artifact corrupt")
	// ErrTruncated means the artifact ends before its declared content
	// does — a partial copy or an interrupted write.
	ErrTruncated = errors.New("artifact truncated")
	// ErrVersion means the artifact was written by an incompatible
	// format version.
	ErrVersion = errors.New("artifact version unsupported")
)

// FNV-1a parameters, shared by every artifact checksum in the repository.
const (
	FNVOffset = uint64(14695981039346656037)
	FNVPrime  = uint64(1099511628211)
)

// Checksum returns the FNV-1a hash of b — the whole-file integrity hash
// appended to pinballs and embedded in selection-file envelopes.
func Checksum(b []byte) uint64 {
	return Update(FNVOffset, b)
}

// Update folds b into a running FNV-1a state and returns the new state,
// so loaders can hash in chunks: Update(Update(FNVOffset, a), b) ==
// Checksum(a ++ b). FNV-1a is inherently sequential per byte, so the
// unrolled eight-byte inner loop below is bit-identical to the naive
// one-byte loop — the equivalence is pinned by a property test against
// the reference implementation.
func Update(h uint64, b []byte) uint64 {
	for len(b) >= 8 {
		h = (h ^ uint64(b[0])) * FNVPrime
		h = (h ^ uint64(b[1])) * FNVPrime
		h = (h ^ uint64(b[2])) * FNVPrime
		h = (h ^ uint64(b[3])) * FNVPrime
		h = (h ^ uint64(b[4])) * FNVPrime
		h = (h ^ uint64(b[5])) * FNVPrime
		h = (h ^ uint64(b[6])) * FNVPrime
		h = (h ^ uint64(b[7])) * FNVPrime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * FNVPrime
	}
	return h
}

// ChecksumWords returns the FNV-1a hash of the little-endian byte
// serialization of words, without materializing those bytes. It equals
// Checksum applied to the 8×len(words) LE encoding — the form pinball
// snapshot checksums have always used.
func ChecksumWords(words []uint64) uint64 {
	h := FNVOffset
	for _, w := range words {
		h = (h ^ (w & 0xff)) * FNVPrime
		h = (h ^ (w >> 8 & 0xff)) * FNVPrime
		h = (h ^ (w >> 16 & 0xff)) * FNVPrime
		h = (h ^ (w >> 24 & 0xff)) * FNVPrime
		h = (h ^ (w >> 32 & 0xff)) * FNVPrime
		h = (h ^ (w >> 40 & 0xff)) * FNVPrime
		h = (h ^ (w >> 48 & 0xff)) * FNVPrime
		h = (h ^ (w >> 56)) * FNVPrime
	}
	return h
}
