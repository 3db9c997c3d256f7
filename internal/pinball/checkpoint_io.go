package pinball

import (
	"encoding/binary"
	"fmt"

	"looppoint/internal/artifact"
	"looppoint/internal/exec"
)

// Checkpoint codec. A Checkpoint is the whole carry a windowed replay
// needs (snapshot + syscall cursors + step offset), so persisting one —
// core's epoch files embed these bytes — lets a crashed job resume
// mid-recording instead of from step 0. The format mirrors the pinball envelope: magic, version, little-endian
// u64 payload, trailing FNV-1a over the payload (magic excluded), and
// loaders classify failures into the artifact sentinels so the recovery
// ladder in core can tell a torn write (ErrTruncated) from bit rot
// (ErrCorrupt) from format skew (ErrVersion) — all of which it survives.

const (
	ckptMagic   = "LOOPCKPT"
	ckptVersion = uint32(1)
	// maxSysPos caps the per-thread syscall cursor count; one cursor per
	// syscall log, same plausibility bound as thread count.
	maxSysPos = maxThreads
)

// EncodeCheckpoint serializes the checkpoint in its checksummed
// envelope.
func EncodeCheckpoint(ck Checkpoint) ([]byte, error) {
	if ck.Snap == nil {
		return nil, fmt.Errorf("pinball: checkpoint at step %d has no snapshot", ck.Step)
	}
	buf := make([]byte, 0, len(ckptMagic)+8+8+8+8*len(ck.SysPos)+ck.Snap.EncodedSize()+8)
	buf = append(buf, ckptMagic...)
	buf = appendU64(buf, uint64(ckptVersion))
	buf = appendU64(buf, ck.Step)
	buf = appendU64(buf, uint64(len(ck.SysPos)))
	for _, p := range ck.SysPos {
		buf = appendU64(buf, uint64(p))
	}
	buf = ck.Snap.AppendBinary(buf)
	sum := artifact.Update(artifact.FNVOffset, buf[len(ckptMagic):])
	return appendU64(buf, sum), nil
}

// DecodeCheckpoint deserializes and verifies a checkpoint envelope,
// classifying failures into the artifact sentinels.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	var ck Checkpoint
	if len(data) < len(ckptMagic) {
		return ck, fmt.Errorf("pinball: checkpoint header: %w at byte offset %d", artifact.ErrTruncated, len(data))
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return ck, fmt.Errorf("pinball: bad checkpoint magic %q: %w", data[:len(ckptMagic)], artifact.ErrCorrupt)
	}
	d := &decoder{data: data, off: len(ckptMagic)}
	if v := uint32(d.u64()); d.err == nil && v != ckptVersion {
		return ck, fmt.Errorf("pinball: checkpoint version %d (want %d): %w", v, ckptVersion, artifact.ErrVersion)
	}
	ck.Step = d.u64()
	nSys := d.u64()
	if d.err == nil && nSys > maxSysPos {
		return ck, fmt.Errorf("pinball: implausible syscall cursor count %d: %w", nSys, artifact.ErrCorrupt)
	}
	if d.err == nil && nSys > 0 {
		if nSys > d.remaining() {
			d.truncated()
		} else {
			ck.SysPos = make([]int, nSys)
			for i := range ck.SysPos {
				ck.SysPos[i] = int(d.u64())
			}
		}
	}
	if d.err != nil {
		return ck, fmt.Errorf("pinball: checkpoint decode: %w", d.err)
	}
	snap, off, err := exec.DecodeSnapshotAt(d.data, d.off)
	if err != nil {
		return ck, fmt.Errorf("pinball: checkpoint decode: %w", err)
	}
	ck.Snap = snap
	if len(data)-off < 8 {
		return ck, fmt.Errorf("pinball: checkpoint integrity hash: %w at byte offset %d", artifact.ErrTruncated, len(data))
	}
	want := artifact.Update(artifact.FNVOffset, data[len(ckptMagic):off])
	if got := binary.LittleEndian.Uint64(data[off:]); got != want {
		return ck, fmt.Errorf("pinball: checkpoint integrity hash mismatch (file %#x, computed %#x): %w", got, want, artifact.ErrCorrupt)
	}
	return ck, nil
}
