package pinball

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// midRunCheckpoint records a pinball and returns a checkpoint strictly
// inside the run, so its snapshot carries live thread/futex/OS state.
func midRunCheckpoint(t *testing.T) (ck Checkpoint, total uint64) {
	t.Helper()
	p := testprog.WithSyscalls(4, 60, omp.Passive)
	pb, err := Record(p, 11, 16)
	if err != nil {
		t.Fatal(err)
	}
	total = pb.Schedule.Steps()
	if ck, err = pb.ReplayWindow(p, pb.StartCheckpoint(), total/3); err != nil {
		t.Fatal(err)
	}
	return ck, total
}

// TestCheckpointCorruptionMatrix flips one bit at every byte offset of
// an encoded checkpoint and asserts each flip is rejected with a typed
// artifact error — never a panic, never silent acceptance.
func TestCheckpointCorruptionMatrix(t *testing.T) {
	ck, _ := midRunCheckpoint(t)
	orig, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	for off := range orig {
		data := append([]byte(nil), orig...)
		data[off] ^= 1 << uint(off%8)
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Fatalf("flip at byte %d accepted", off)
		} else if !typed(err) {
			t.Fatalf("flip at byte %d: untyped error %v", off, err)
		}
	}
}

// TestCheckpointTruncationMatrix truncates at every 8-byte field
// boundary: every prefix must fail typed, and truncations must carry the
// byte offset in the message.
func TestCheckpointTruncationMatrix(t *testing.T) {
	ck, _ := midRunCheckpoint(t)
	orig, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	for end := 0; end < len(orig); end += 8 {
		_, err := DecodeCheckpoint(orig[:end])
		if err == nil {
			t.Fatalf("truncation at byte %d accepted", end)
		}
		if !typed(err) {
			t.Fatalf("truncation at byte %d: untyped error %v", end, err)
		}
		if errors.Is(err, artifact.ErrTruncated) && !strings.Contains(err.Error(), "byte offset") {
			t.Fatalf("truncation error %q does not carry the byte offset", err)
		}
	}
}

func TestCheckpointVersionSkew(t *testing.T) {
	ck, _ := midRunCheckpoint(t)
	data, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[len(ckptMagic):], uint64(ckptVersion+3))
	if _, err := DecodeCheckpoint(data); !errors.Is(err, artifact.ErrVersion) {
		t.Fatalf("version skew classified as %v, want ErrVersion", err)
	}
}

// TestCheckpointRoundTripReplayIdentity is the property test: for every
// checkpoint position, Snapshot → encode → decode → Restore →
// ReplayWindow to the end of the recording must land on machine state
// byte-identical to an unbroken serial replay — across seeds, thread
// counts, and schedule shapes.
func TestCheckpointRoundTripReplayIdentity(t *testing.T) {
	for name, w := range windowPinballs(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := w.pb.Replay(w.prog)
			if err != nil {
				t.Fatal(err)
			}
			want := serial.Snapshot().AppendBinary(nil)
			total := w.pb.Schedule.Steps()
			for k, ck := range chainWindows(t, w.prog, w.pb, total/5) {
				enc, err := EncodeCheckpoint(ck)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", k, err)
				}
				dec, err := DecodeCheckpoint(enc)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", k, err)
				}
				if !reflect.DeepEqual(dec, ck) {
					t.Fatalf("checkpoint %d: decode differs from original", k)
				}
				end, err := w.pb.ReplayWindow(w.prog, dec, total-dec.Step)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", k, err)
				}
				if got := end.Snap.AppendBinary(nil); !bytes.Equal(got, want) {
					t.Fatalf("checkpoint %d (step %d): resumed replay is not byte-identical to unbroken replay", k, dec.Step)
				}
			}
		})
	}
}
