package pinball

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

func TestRecordReplayRoundTrip(t *testing.T) {
	p := testprog.WithSyscalls(4, 200, omp.Passive)
	pb, err := Record(p, 1234, 256)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if pb.Schedule.Steps() == 0 || len(pb.Syscalls[0]) == 0 {
		t.Fatal("empty pinball")
	}

	m, err := pb.Replay(p)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !m.Done() {
		t.Error("replay did not run to completion")
	}
}

func TestReplayReproducesSyscallResults(t *testing.T) {
	p := testprog.WithSyscalls(4, 100, omp.Passive)
	// Record with one seed.
	pb, err := Record(p, 42, 256)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	m1, err := pb.Replay(p)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// Record a second pinball with a different seed: different results.
	pb2, err := Record(p, 4242, 256)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	m2, err := pb2.Replay(p)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	same := true
	for tid := 0; tid < 4; tid++ {
		a := m1.Mem[testprog.OutAddr(p, tid)]
		b := m2.Mem[testprog.OutAddr(p, tid)]
		if a != b {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical outputs; syscalls not exercised")
	}
	// But replaying the SAME pinball twice is identical.
	m3, err := pb.Replay(p)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	for tid := 0; tid < 4; tid++ {
		if m1.Mem[testprog.OutAddr(p, tid)] != m3.Mem[testprog.OutAddr(p, tid)] {
			t.Errorf("thread %d output differs across replays", tid)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	p := testprog.WithSyscalls(2, 50, omp.Passive)
	pb, err := Record(p, 7, 0)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	pb.Start.Mem[len(pb.Start.Mem)/2] ^= 0xDEAD
	if err := pb.Verify(); err == nil {
		t.Fatal("corrupted snapshot passed verification")
	}
	if _, err := pb.Replay(p); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Replay of corrupted pinball = %v, want checksum error", err)
	}
}

func TestReplayDetectsTruncatedSyscallLog(t *testing.T) {
	p := testprog.WithSyscalls(2, 50, omp.Passive)
	pb, err := Record(p, 7, 0)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	pb.Syscalls[0] = pb.Syscalls[0][:len(pb.Syscalls[0])/2]
	if _, err := pb.Replay(p); err == nil {
		t.Fatal("replay with truncated injection log succeeded")
	}
}

// TestReplayVerifiesFinalChecksum: a recording whose final memory checksum
// is wrong replays to the end and is then rejected — the check a resumed
// analysis relies on.
func TestReplayVerifiesFinalChecksum(t *testing.T) {
	p := testprog.WithSyscalls(2, 50, omp.Passive)
	pb, err := Record(p, 7, 0)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	pb.FinalChecksum ^= 1
	if _, err := pb.Replay(p); err == nil || !strings.Contains(err.Error(), "final state checksum") {
		t.Fatalf("Replay with a wrong final checksum = %v, want a final-checksum error", err)
	}
}

func TestReplayDetectsTamperedSchedule(t *testing.T) {
	p := testprog.WithSyscalls(2, 50, omp.Passive)
	pb, err := Record(p, 7, 0)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	// Extending the schedule makes replay step a halted thread.
	pb.Schedule = append(pb.Schedule, exec.ScheduleEntry{Tid: 0, N: 100})
	if _, err := pb.Replay(p); err == nil {
		t.Fatal("replay with tampered schedule succeeded")
	}
}

// loadProgram is a one-thread program that loads from addr and halts.
func loadProgram(t *testing.T, addr int64) *isa.Program {
	t.Helper()
	p := isa.NewProgram("load", 1)
	p.Alloc("x", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	blk := r.NewBlock("entry")
	blk.IMovI(1, addr)
	blk.ILoad(2, 1, 0)
	blk.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReplayMachineFaultIsTypedError: a program that faults where the
// recorded one did not (an out-of-range load) makes both replays return
// an error wrapping exec.ErrMachine instead of panicking.
func TestReplayMachineFaultIsTypedError(t *testing.T) {
	pb, err := Record(loadProgram(t, 0), 7, 0)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	faulty := loadProgram(t, 1<<40)
	if _, err := pb.Replay(faulty); !errors.Is(err, exec.ErrMachine) {
		t.Errorf("Replay = %v, want ErrMachine", err)
	}
	if _, err := pb.stepReplay(faulty, func(*exec.BlockEvent) {}); !errors.Is(err, exec.ErrMachine) {
		t.Errorf("stepReplay = %v, want ErrMachine", err)
	}
}

// profileRegions profiles a recording the way the analysis pipeline does
// — DCFG replay for the main-image loop headers, then a BBV replay
// slicing at them — and returns the regions.
func profileRegions(t *testing.T, p *isa.Program, pb *Pinball, slice uint64) []*bbv.Region {
	t.Helper()
	db := dcfg.NewBuilder(p, p.NumThreads())
	if _, err := pb.Replay(p, db); err != nil {
		t.Fatalf("DCFG replay: %v", err)
	}
	var addrs []uint64
	for _, h := range db.Graph().FindLoops().MainImageHeaders() {
		addrs = append(addrs, h.Addr)
	}
	col := bbv.NewCollector(p, addrs, slice)
	if _, err := pb.Replay(p, col); err != nil {
		t.Fatalf("BBV replay: %v", err)
	}
	return col.Finish().Regions
}

func TestRegionPinballExtraction(t *testing.T) {
	p := testprog.Phased(4, 8, 150, omp.Active)
	pb, err := Record(p, 11, 512)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	regions := profileRegions(t, p, pb, 4*1500)
	if len(regions) < 3 {
		t.Fatalf("want >= 3 regions, got %d", len(regions))
	}

	// Extract the middle region as its own pinball, with the previous
	// region (from the program start) as warmup prefix.
	reg := regions[1]
	rpbs, err := pb.ExtractRegions(p, []RegionSpec{{
		Name:            "phased.r1",
		WarmupStartStep: regions[0].StartICount,
		StartStep:       reg.StartICount,
		EndStep:         reg.EndICount,
		Start:           reg.Start,
		End:             reg.End,
	}})
	if err != nil {
		t.Fatalf("ExtractRegions: %v", err)
	}
	rpb := rpbs[0]
	if got, want := rpb.Schedule.Steps(), reg.EndICount-regions[0].StartICount; got != want {
		t.Errorf("region schedule steps = %d, want warmup + region = %d", got, want)
	}
	if got, want := rpb.WarmupSteps, regions[0].UnfilteredLen(); got != want {
		t.Errorf("warmup steps = %d, want the previous region's %d", got, want)
	}
	if rpb.Schedule.Steps() >= pb.Schedule.Steps() {
		t.Error("region pinball not smaller than whole-program pinball")
	}

	// Replaying the region pinball must succeed and stop at the region
	// end, not the program's.
	m, err := rpb.Replay(p)
	if err != nil {
		t.Fatalf("region Replay: %v", err)
	}
	if m.Done() {
		t.Error("region replay ran to program completion")
	}
}

func TestRegionPinballMidProgramStart(t *testing.T) {
	p := testprog.Phased(2, 8, 100, omp.Passive)
	pb, err := Record(p, 3, 512)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	regions := profileRegions(t, p, pb, 2*800)
	if len(regions) < 4 {
		t.Skipf("only %d regions", len(regions))
	}
	reg := regions[2]
	rpbs, err := pb.ExtractRegions(p, []RegionSpec{{
		Name:            "mid",
		WarmupStartStep: reg.StartICount,
		StartStep:       reg.StartICount,
		EndStep:         reg.EndICount,
		Start:           reg.Start,
		End:             reg.End,
	}})
	if err != nil {
		t.Fatalf("ExtractRegions: %v", err)
	}
	rpb := rpbs[0]
	// The region schedule length must match the region's unfiltered span.
	if got, want := rpb.Schedule.Steps(), reg.UnfilteredLen(); got != want {
		t.Errorf("region schedule steps = %d, want %d", got, want)
	}
	if rpb.Schedule.Steps() >= pb.Schedule.Steps() {
		t.Error("region pinball not smaller than whole-program pinball")
	}
	m, err := rpb.Replay(p)
	if err != nil {
		t.Fatalf("region Replay: %v", err)
	}
	if m.Done() {
		t.Error("region replay ran to program completion")
	}
}

// TestScheduleSkipTake: the two cuts a recording is split with — skip the
// first n steps, take the first n steps — spelled with Window, including
// cuts past the end, and the two halves of every cut partition the
// schedule.
func TestScheduleSkipTake(t *testing.T) {
	s := exec.Schedule{{Tid: 0, N: 10}, {Tid: 1, N: 5}, {Tid: 0, N: 7}}
	skip := func(n uint64) exec.Schedule { return s.Window(n, s.Steps()) }
	take := func(n uint64) exec.Schedule { return s.Window(0, n) }
	if got := skip(0).Steps(); got != 22 {
		t.Errorf("skip 0 = %d steps, want 22", got)
	}
	if got := skip(12).Steps(); got != 10 {
		t.Errorf("skip 12 = %d steps, want 10", got)
	}
	if got := take(12).Steps(); got != 12 {
		t.Errorf("take 12 = %d steps, want 12", got)
	}
	if got := take(100).Steps(); got != 22 {
		t.Errorf("take 100 = %d steps, want 22", got)
	}
	if got := skip(100).Steps(); got != 0 {
		t.Errorf("skip 100 = %d steps, want 0", got)
	}
	for n := uint64(0); n <= 22; n++ {
		if take(n).Steps()+skip(n).Steps() != 22 {
			t.Errorf("take %d + skip %d do not partition", n, n)
		}
	}
}

// TestScheduleWindowEqualsSkipTake is the property Window exists under:
// on random schedules, Window(from, n) is exactly "skip from steps, take
// n" — checked against an oracle that shares nothing with it: the
// schedule expanded to one record per retired step, sliced, and
// re-coalesced by source entry. Covers cuts inside an entry, windows
// inside one entry, empty windows, and windows that start or reach past
// the end.
func TestScheduleWindowEqualsSkipTake(t *testing.T) {
	type step struct{ entry, tid int }
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		s := make(exec.Schedule, rng.Intn(12))
		var steps []step
		for i := range s {
			s[i] = exec.ScheduleEntry{Tid: rng.Intn(4), N: uint32(1 + rng.Intn(9))}
			for k := uint32(0); k < s[i].N; k++ {
				steps = append(steps, step{i, s[i].Tid})
			}
		}
		total := s.Steps()
		from := uint64(rng.Intn(int(total) + 4))
		n := uint64(rng.Intn(int(total) + 4))

		var want exec.Schedule
		last := -1
		for _, st := range steps[min(from, total):min(from+n, total)] {
			if st.entry != last {
				want = append(want, exec.ScheduleEntry{Tid: st.tid})
				last = st.entry
			}
			want[len(want)-1].N++
		}
		if got := s.Window(from, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v.Window(%d, %d) = %v, per-step oracle says %v", s, from, n, got, want)
		}
	}
}

// TestRecordingUnperturbedByBlockObservers: attaching the DCFG builder to
// the recording machine changes nothing about the recording — the pinball
// is byte-identical to a bare one — and the graph it takes from the
// recording run deep-equals the graph built from replaying that pinball.
func TestRecordingUnperturbedByBlockObservers(t *testing.T) {
	for name, w := range map[string]*isa.Program{
		"phased-passive": testprog.Phased(4, 3, 40, omp.Passive),
		"phased-active":  testprog.Phased(3, 2, 20, omp.Active),
		"syscalls":       testprog.WithSyscalls(4, 60, omp.Passive),
	} {
		t.Run(name, func(t *testing.T) {
			opts := exec.RunOpts{FlowWindow: 64, QuantumBias: []int{1, 3}}
			bare, err := RecordWithOptions(w, 9, opts)
			if err != nil {
				t.Fatal(err)
			}
			db := dcfg.NewBuilder(w, w.NumThreads())
			observed, err := RecordWithOptions(w, 9, opts, db)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(observed.AppendBinary(nil), bare.AppendBinary(nil)) {
				t.Fatal("recording with a block observer attached differs from a bare recording")
			}
			rb := dcfg.NewBuilder(w, w.NumThreads())
			if _, err := bare.Replay(w, rb); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(db.Graph(), rb.Graph()) {
				t.Fatalf("graph from the recording run (%v) differs from the replay's (%v)", db.Graph(), rb.Graph())
			}
		})
	}
}
