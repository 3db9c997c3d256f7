package pinball

import (
	"reflect"
	"testing"

	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

func windowPinballs(t *testing.T) map[string]struct {
	prog *isa.Program
	pb   *Pinball
} {
	t.Helper()
	out := map[string]struct {
		prog *isa.Program
		pb   *Pinball
	}{}
	for _, rec := range []struct {
		name string
		prog *isa.Program
		seed uint64
		flow uint64
	}{
		{"phased", testprog.Phased(4, 3, 40, omp.Passive), 5, 0},
		{"syscalls", testprog.WithSyscalls(4, 60, omp.Passive), 11, 16},
		{"active", testprog.Phased(3, 2, 20, omp.Active), 1, 8},
	} {
		pb, err := Record(rec.prog, rec.seed, rec.flow)
		if err != nil {
			t.Fatalf("%s: %v", rec.name, err)
		}
		out[rec.name] = struct {
			prog *isa.Program
			pb   *Pinball
		}{rec.prog, pb}
	}
	return out
}

// chainWindows replays the recording as consecutive windows of `every`
// steps, each resuming from the checkpoint the previous one returned, and
// returns every checkpoint on the way: the start, one per window end.
func chainWindows(t *testing.T, p *isa.Program, pb *Pinball, every uint64) []Checkpoint {
	t.Helper()
	cks := []Checkpoint{pb.StartCheckpoint()}
	for total := pb.Schedule.Steps(); cks[len(cks)-1].Step < total; {
		next, err := pb.ReplayWindow(p, cks[len(cks)-1], every)
		if err != nil {
			t.Fatalf("every=%d window %d: %v", every, len(cks)-1, err)
		}
		cks = append(cks, next)
	}
	return cks
}

// TestReplayWindowChainPositions pins the window arithmetic: chained
// windows end on exact multiples of their width (the last one on the end
// of the recording, also when the width overshoots it), each checkpoint's
// snapshot stands at its own Step, and syscall cursors never regress.
func TestReplayWindowChainPositions(t *testing.T) {
	for name, w := range windowPinballs(t) {
		t.Run(name, func(t *testing.T) {
			total := w.pb.Schedule.Steps()
			for _, every := range []uint64{total / 7, total / 3, total - 1, total, total + 100} {
				cks := chainWindows(t, w.prog, w.pb, every)
				if want := int((total+every-1)/every) + 1; len(cks) != want {
					t.Fatalf("every=%d: %d checkpoints, want %d", every, len(cks), want)
				}
				prevPos := make([]int, len(w.pb.Syscalls))
				for k, ck := range cks {
					if want := min(uint64(k)*every, total); ck.Step != want {
						t.Fatalf("every=%d: checkpoint %d at step %d, want %d", every, k, ck.Step, want)
					}
					if ck.Snap.Steps != ck.Step {
						t.Fatalf("checkpoint %d: snapshot Steps %d != Step %d", k, ck.Snap.Steps, ck.Step)
					}
					for tid, p := range ck.SysPos {
						if p < prevPos[tid] {
							t.Fatalf("checkpoint %d: syscall cursor regressed for tid %d", k, tid)
						}
						prevPos[tid] = p
					}
				}
			}
		})
	}
}

// TestReplayWindowStitchesToSerial chains windows to the end of the
// recording and requires the last checkpoint's state to deep-equal a
// serial full replay — the foundation the epoch-cut analysis stands on.
func TestReplayWindowStitchesToSerial(t *testing.T) {
	for name, w := range windowPinballs(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := w.pb.Replay(w.prog)
			if err != nil {
				t.Fatal(err)
			}
			want := serial.Snapshot()
			total := w.pb.Schedule.Steps()
			for _, windows := range []uint64{2, 4, 8} {
				every := total / windows
				if every == 0 {
					continue
				}
				cks := chainWindows(t, w.prog, w.pb, every)
				// The serial machine's OS is a fully-consumed ReplayOS; the
				// final window's OS cursor state must match it exactly.
				if got := cks[len(cks)-1].Snap; !reflect.DeepEqual(got, want) {
					t.Fatalf("windows=%d: final window state differs from serial replay", windows)
				}
			}
		})
	}
}

// TestReplayWindowVerifiesFinalChecksum: only the window that ends the
// recording can check the final memory checksum, and it must — a wrong
// one fails that window exactly as it fails Replay, and no earlier one.
func TestReplayWindowVerifiesFinalChecksum(t *testing.T) {
	for name, w := range windowPinballs(t) {
		t.Run(name, func(t *testing.T) {
			total := w.pb.Schedule.Steps()
			bad := *w.pb
			bad.FinalChecksum ^= 1
			if _, err := bad.Replay(w.prog); err == nil {
				t.Fatal("Replay accepted a wrong final checksum")
			}
			if _, err := bad.ReplayWindow(w.prog, bad.StartCheckpoint(), total+5); err == nil {
				t.Fatal("whole-recording window accepted a wrong final checksum")
			}
			mid, err := bad.ReplayWindow(w.prog, bad.StartCheckpoint(), total/2)
			if err != nil {
				t.Fatalf("window short of the end: %v", err)
			}
			if _, err := bad.ReplayWindow(w.prog, mid, total); err == nil {
				t.Fatal("last window of a chain accepted a wrong final checksum")
			}
		})
	}
}
