package pinball

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/exec"
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

// legacyRecordRegion is a faithful copy of RecordRegion before it was
// routed through the windowed-replay primitive: the positioning machine
// itself continues to the region end. It exists only to pin the new
// path byte-identical to the old one.
func legacyRecordRegion(pb *Pinball, p *isa.Program, name string, bounds RegionBounds) (*Pinball, error) {
	if err := pb.Verify(); err != nil {
		return nil, fmt.Errorf("pinball: record region %s: %w", name, err)
	}
	m := exec.NewMachine(p, 0)
	m.Restore(pb.Start)
	replay := exec.NewReplayOS(pb.Syscalls)
	m.OS = replay

	var endHits, startHits uint64
	if !bounds.End.IsEnd && !bounds.End.IsStart() {
		m.AddObserver(exec.ObserverFunc(func(ev *exec.Event) {
			if ev.BlockEntry && ev.Block.Addr == bounds.End.PC {
				endHits++
			}
		}))
	}
	trackStart := bounds.Start != bounds.WarmupStart && !bounds.Start.IsStart()
	if trackStart {
		m.AddObserver(exec.ObserverFunc(func(ev *exec.Event) {
			if ev.BlockEntry && ev.Block.Addr == bounds.Start.PC {
				startHits++
			}
		}))
	}

	var steps0 uint64
	base := m.TotalICount()
	if !bounds.WarmupStart.IsStart() {
		w := bbv.NewWatcher(m, bounds.WarmupStart)
		m.AddObserver(w)
		if err := m.RunSchedule(pb.Schedule); err != nil {
			return nil, fmt.Errorf("pinball: record region %s: %w", name, err)
		}
		if !w.Fired {
			return nil, fmt.Errorf("pinball: record region %s: warmup-start marker %v not reached",
				name, bounds.WarmupStart)
		}
		steps0 = m.TotalICount() - base
	}
	snap := m.Snapshot()
	sys0 := replay.Positions()

	var warmupSteps uint64
	if trackStart {
		sw := bbv.NewWatcher(m, bounds.Start)
		sw.SkipCounted(startHits)
		sw.StopOnFire = false
		sw.OnFire = func() { warmupSteps = m.TotalICount() - base - steps0 }
		m.AddObserver(sw)
	}
	ew := bbv.NewWatcher(m, bounds.End)
	ew.SkipCounted(endHits)
	m.AddObserver(ew)
	rest := pb.Schedule.Skip(steps0)
	if err := m.RunSchedule(rest); err != nil {
		return nil, fmt.Errorf("pinball: record region %s: %w", name, err)
	}
	if !bounds.End.IsEnd && !ew.Fired {
		return nil, fmt.Errorf("pinball: record region %s: end marker %v not reached", name, bounds.End)
	}
	steps1 := m.TotalICount() - base - steps0
	sys1 := replay.Positions()

	region := &Pinball{
		Name:        name,
		NumThreads:  pb.NumThreads,
		Start:       snap,
		Syscalls:    sliceSyscalls(pb.Syscalls, sys0, sys1),
		Schedule:    rest.Take(steps1),
		Region:      bounds,
		WarmupSteps: warmupSteps,
	}
	region.MemChecksum = fnv1a(snap.Mem)
	region.FinalChecksum = fnv1a(m.Mem)
	return region, nil
}

// regionBoundsFromProfile derives a few real region bounds by profiling
// the recording the same way core.Analyze does, so the identity check
// runs over markers that actually fire.
func regionBoundsFromProfile(t *testing.T, p *isa.Program, pb *Pinball) []RegionBounds {
	t.Helper()
	col := profileForTest(t, p, pb)
	var out []RegionBounds
	for _, r := range col.Regions {
		out = append(out, RegionBounds{Start: r.Start, End: r.End, WarmupStart: r.Start})
		if len(out) >= 3 {
			break
		}
	}
	// A warmup variant: snapshot at the previous region's start.
	if len(col.Regions) >= 2 {
		r := col.Regions[1]
		out = append(out, RegionBounds{
			Start: r.Start, End: r.End,
			WarmupStart: col.Regions[0].Start,
		})
	}
	return out
}

func profileForTest(t *testing.T, p *isa.Program, pb *Pinball) *bbv.Profile {
	t.Helper()
	// Use every conditional self-loop header as a marker with a small
	// slice target, mirroring the analysis pipeline's marker mechanism.
	var markers []uint64
	for _, img := range p.Images {
		if img.Sync {
			continue
		}
		for _, rt := range img.Routines {
			for i, blk := range rt.Blocks {
				term := blk.Instrs[len(blk.Instrs)-1]
				if term.Op == isa.OpBrCond && (term.Target == i || term.Else == i) {
					markers = append(markers, blk.Addr)
				}
			}
		}
	}
	if len(markers) == 0 {
		t.Skip("no loop markers in program")
	}
	col := bbv.NewCollector(p, markers, uint64(60*p.NumThreads()))
	if _, err := pb.Replay(p, col); err != nil {
		t.Fatal(err)
	}
	return col.Finish()
}

// TestRecordRegionMatchesLegacyPath pins the windowed RecordRegion
// byte-identical (serialized form) to the pre-refactor implementation
// across region shapes, including a warmup prefix.
func TestRecordRegionMatchesLegacyPath(t *testing.T) {
	for name, w := range windowPinballs(t) {
		t.Run(name, func(t *testing.T) {
			bounds := regionBoundsFromProfile(t, w.prog, w.pb)
			if len(bounds) == 0 {
				t.Skip("no regions")
			}
			for i, b := range bounds {
				rname := fmt.Sprintf("%s.r%d", name, i)
				got, err := w.pb.RecordRegion(w.prog, rname, b)
				if err != nil {
					t.Fatalf("region %d: new path: %v", i, err)
				}
				want, err := legacyRecordRegion(w.pb, w.prog, rname, b)
				if err != nil {
					t.Fatalf("region %d: legacy path: %v", i, err)
				}
				if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
					t.Fatalf("region %d (%v..%v warmup %v): windowed RecordRegion bytes differ from legacy path",
						i, b.Start, b.End, b.WarmupStart)
				}
				// The extracted region must itself replay cleanly.
				if _, err := got.Replay(w.prog); err != nil {
					t.Fatalf("region %d: replay of extracted pinball: %v", i, err)
				}
			}
		})
	}
}
