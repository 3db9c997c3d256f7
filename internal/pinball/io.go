package pinball

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/exec"
)

// Pinballs are "portable and shareable user-level checkpoints" (the
// paper's pinball citation): this file gives them a versioned on-disk
// format so checkpoints can be archived and simulated by other users
// without rebuilding the workload state. The format is a simple
// little-endian binary layout with a magic header and the snapshot
// checksum; loaders verify integrity before returning.
//
// Two code paths produce and consume the same bytes:
//
//   - the slab path (AppendBinary / Decode) serializes into one
//     exact-size buffer and decodes from a byte slice with a single
//     checksum pass — the product path used by Save and Load;
//   - the streaming reference (ReadFrom, io_stream_test.go) reads
//     incrementally from any io.Reader with growth caps, so a
//     corrupted-but-plausible length fails at the real end of input
//     instead of committing gigabytes. Only tests and FuzzReadFrom use it.
//
// Both paths are pinned byte-identical by the compatibility tests, and
// both classify failures into the artifact package's typed sentinels —
// errors.Is(err, artifact.ErrTruncated) for files that end early (with
// the byte offset in the message), artifact.ErrCorrupt for bad magic,
// implausible lengths, or checksum mismatches, and artifact.ErrVersion
// for format skew — so callers like lpsim's checkpoint-directory mode
// can quarantine bad files and continue.

const (
	magic = "LOOPPINB"
	// version 2 extends the snapshot section with the futex wait queues
	// (FIFO wake order) and the OS model's opaque state, which mid-run
	// checkpoints need for byte-identical resume. v1 files predate
	// mid-run snapshots and are rejected with ErrVersion.
	version = uint32(2)
)

// Plausibility caps shared by both decode paths. A declared length past
// its cap is corruption, not truncation: no well-formed pinball is that
// large.
const (
	maxStringLen  = 1 << 20
	maxMemWords   = 1 << 32
	maxThreads    = 1 << 16
	maxStackDepth = 1 << 20
	maxLogs       = 1 << 16
	maxLogLen     = 1 << 32
	maxSchedule   = 1 << 32
	maxOSWords    = 1 << 20
)

// EncodedSize returns the exact serialized length in bytes, including
// the magic header and the trailing integrity hash. AppendBinary into a
// buffer with at least this much spare capacity performs no allocation.
func (pb *Pinball) EncodedSize() int {
	n := len(magic)
	n += 8 // version
	n += 8 + len(pb.Name)
	n += 6 * 8                  // NumThreads … EndHitsAtSnapshot
	n += 3 * 3 * 8              // region markers
	n += pb.Start.EncodedSize() // snapshot section
	n += 8                      // syscall log count
	for _, log := range pb.Syscalls {
		n += 8 + 8*len(log)
	}
	n += 8 + 2*8*len(pb.Schedule) // schedule count + entries
	n += 8                        // trailing FNV-1a
	return n
}

// AppendBinary appends the pinball's serialized form to buf and returns
// the extended slice. The output is byte-identical to the historical
// streaming writer: magic, then the payload as little-endian u64s, then
// a trailing FNV-1a over every payload byte (magic excluded).
func (pb *Pinball) AppendBinary(buf []byte) []byte {
	base := len(buf)
	if need := pb.EncodedSize(); cap(buf)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, buf)
		buf = grown
	}
	buf = append(buf, magic...)
	buf = appendU64(buf, uint64(version))
	buf = appendU64(buf, uint64(len(pb.Name)))
	buf = append(buf, pb.Name...)
	buf = appendU64(buf, uint64(pb.NumThreads))
	buf = appendU64(buf, pb.MemChecksum)
	buf = appendU64(buf, pb.FinalChecksum)
	buf = appendU64(buf, pb.WarmupSteps)
	buf = appendU64(buf, pb.StartHitsAtSnapshot)
	buf = appendU64(buf, pb.EndHitsAtSnapshot)
	buf = appendMarker(buf, pb.Region.Start)
	buf = appendMarker(buf, pb.Region.End)
	buf = appendMarker(buf, pb.Region.WarmupStart)

	// Snapshot section — the byte layout is owned by the exec codec and
	// shared with the durable checkpoint/progress files.
	buf = pb.Start.AppendBinary(buf)

	// Syscall logs.
	buf = appendU64(buf, uint64(len(pb.Syscalls)))
	for _, log := range pb.Syscalls {
		buf = appendU64(buf, uint64(len(log)))
		for _, v := range log {
			buf = appendU64(buf, uint64(v))
		}
	}

	// Schedule.
	buf = appendU64(buf, uint64(len(pb.Schedule)))
	for _, e := range pb.Schedule {
		buf = appendU64(buf, uint64(e.Tid))
		buf = appendU64(buf, uint64(e.N))
	}

	// Trailing whole-file integrity hash over every payload byte.
	sum := artifact.Update(artifact.FNVOffset, buf[base+len(magic):])
	return appendU64(buf, sum)
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendMarker(b []byte, m bbv.Marker) []byte {
	b = appendU64(b, m.PC)
	b = appendU64(b, m.Count)
	if m.IsEnd {
		return appendU64(b, 1)
	}
	return appendU64(b, 0)
}

// slabPool recycles encode buffers across Write/Save calls so a region
// campaign's save loop reaches zero steady-state heap growth. Neither
// user retains the slab past the call: io.Writer must not keep the
// bytes, and os.WriteFile copies them into the kernel.
var slabPool = sync.Pool{New: func() any { return new([]byte) }}

// Write serializes the pinball to dst.
func (pb *Pinball) Write(dst io.Writer) error {
	bp := slabPool.Get().(*[]byte)
	data := pb.AppendBinary((*bp)[:0])
	_, err := dst.Write(data)
	*bp = data[:0]
	slabPool.Put(bp)
	return err
}

// Save writes the pinball to a file.
func (pb *Pinball) Save(path string) error {
	bp := slabPool.Get().(*[]byte)
	data := pb.AppendBinary((*bp)[:0])
	err := os.WriteFile(path, data, 0o644)
	*bp = data[:0]
	slabPool.Put(bp)
	return err
}

// Load reads a pinball from a file and verifies it. Errors carry the
// file path and wrap the artifact sentinels (plus the byte offset for
// truncation), so directory sweeps can classify and quarantine bad
// files.
func Load(path string) (*Pinball, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pb, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return pb, nil
}

// decoder is a bounds-checked cursor over a complete serialized pinball.
// Structure is decoded first — a read past the end classifies as
// ErrTruncated with the file length as the offset — and the whole-file
// hash is verified in one pass afterwards, so truncation and corruption
// classify exactly as the streaming reader does.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) u64() uint64 {
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

// remaining reports how many u64 words are left in the input; length
// prefixes are checked against it so a declared count beyond the file
// fails as truncation before any allocation is sized from it.
func (d *decoder) remaining() uint64 { return uint64(len(d.data)-d.off) / 8 }

func (d *decoder) truncated() {
	if d.err == nil {
		d.err = fmt.Errorf("%w at byte offset %d", artifact.ErrTruncated, len(d.data))
	}
}

func (d *decoder) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen {
		d.err = fmt.Errorf("implausible string length %d at byte offset %d: %w", n, d.off, artifact.ErrCorrupt)
		return ""
	}
	if uint64(len(d.data)-d.off) < n {
		d.truncated()
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) marker() bbv.Marker {
	m := bbv.Marker{PC: d.u64(), Count: d.u64()}
	m.IsEnd = d.u64() == 1
	return m
}

// Decode deserializes a pinball from its complete serialized form — the
// slab counterpart of ReadFrom, sharing its format, plausibility caps,
// and error classification, but decoding in place with a single
// whole-payload checksum pass instead of per-byte hashing.
func Decode(data []byte) (*Pinball, error) {
	if len(data) < len(magic) {
		return nil, fmt.Errorf("pinball: reading header: %w at byte offset %d", artifact.ErrTruncated, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("pinball: bad magic %q: %w", data[:len(magic)], artifact.ErrCorrupt)
	}
	d := &decoder{data: data, off: len(magic)}
	if v := uint32(d.u64()); d.err == nil && v != version {
		return nil, fmt.Errorf("pinball: version %d (want %d): %w", v, version, artifact.ErrVersion)
	}
	pb := &Pinball{}
	pb.Name = d.str()
	pb.NumThreads = int(d.u64())
	pb.MemChecksum = d.u64()
	pb.FinalChecksum = d.u64()
	pb.WarmupSteps = d.u64()
	pb.StartHitsAtSnapshot = d.u64()
	pb.EndHitsAtSnapshot = d.u64()
	pb.Region.Start = d.marker()
	pb.Region.End = d.marker()
	pb.Region.WarmupStart = d.marker()

	// Snapshot section, decoded by the exec codec at the current offset.
	// Truncation offsets stay file-absolute because the codec sees the
	// whole slice, so the classification matches the streaming reader.
	if d.err != nil {
		return nil, fmt.Errorf("pinball: decode: %w", d.err)
	}
	s, off, err := exec.DecodeSnapshotAt(d.data, d.off)
	if err != nil {
		return nil, fmt.Errorf("pinball: %w", err)
	}
	d.off = off
	pb.Start = s

	nLogs := d.u64()
	if d.err == nil && nLogs > maxLogs {
		return nil, fmt.Errorf("pinball: implausible syscall log count %d: %w", nLogs, artifact.ErrCorrupt)
	}
	for i := uint64(0); i < nLogs && d.err == nil; i++ {
		n := d.u64()
		if d.err == nil && n > maxLogLen {
			return nil, fmt.Errorf("pinball: implausible syscall log length %d: %w", n, artifact.ErrCorrupt)
		}
		var log []int64
		if d.err == nil {
			if n > d.remaining() {
				d.truncated()
			} else {
				log = make([]int64, n)
				for j := range log {
					log[j] = int64(binary.LittleEndian.Uint64(d.data[d.off:]))
					d.off += 8
				}
			}
		}
		pb.Syscalls = append(pb.Syscalls, log)
	}

	nSched := d.u64()
	if d.err == nil && nSched > maxSchedule {
		return nil, fmt.Errorf("pinball: implausible schedule length %d: %w", nSched, artifact.ErrCorrupt)
	}
	if d.err == nil && nSched > 0 {
		if 2*nSched > d.remaining() {
			d.truncated()
		} else {
			pb.Schedule = make([]exec.ScheduleEntry, nSched)
			for i := range pb.Schedule {
				pb.Schedule[i] = exec.ScheduleEntry{
					Tid: int(binary.LittleEndian.Uint64(d.data[d.off:])),
					N:   uint32(binary.LittleEndian.Uint64(d.data[d.off+8:])),
				}
				d.off += 16
			}
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("pinball: decode: %w", d.err)
	}
	// Verify the trailing whole-file hash in one pass over the payload.
	payloadEnd := d.off
	if len(d.data)-payloadEnd < 8 {
		return nil, fmt.Errorf("pinball: reading integrity hash: %w at byte offset %d", artifact.ErrTruncated, len(d.data))
	}
	want := artifact.Update(artifact.FNVOffset, d.data[len(magic):payloadEnd])
	if got := binary.LittleEndian.Uint64(d.data[payloadEnd:]); got != want {
		return nil, fmt.Errorf("pinball: file integrity hash mismatch (file %#x, computed %#x): %w", got, want, artifact.ErrCorrupt)
	}
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	return pb, nil
}
