package bbv_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/workloads"
)

// TestCollectorFeedsAgree is the collector's differential test over every
// registered workload at test input under both wait policies: collectors
// fed by a live, coalesced Replay of a recording, by the recording's
// BlockLog, and one instruction at a time, into OnBlock and into the
// OnInstr oracle, must build DeepEqual profiles. It covers the main-image
// loop headers as markers at fixed slices, with every header's modulus the
// thread count, and at variable slices, and BarrierPoint's collector: the barrier release as the one
// marker at a slice target of one instruction.
func TestCollectorFeedsAgree(t *testing.T) {
	var coalesced, resumed atomic.Int64 // marker events with Entries > 1; with FirstIdx > 0 and Entries > 0
	t.Run("workloads", func(t *testing.T) {
		for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
			for _, spec := range workloads.All() {
				name := fmt.Sprintf("%s/%v", spec.Name, policy)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					feedsAgree(t, spec, policy, &coalesced, &resumed)
				})
			}
		}
	})
	if coalesced.Load() == 0 || resumed.Load() == 0 {
		t.Fatalf("%d marker events entered their block more than once and %d resumed it mid-pass first; both shapes must be split", coalesced.Load(), resumed.Load())
	}
}

// feedsAgree records one workload and compares the four feeds' profiles
// under every collector configuration, counting the marker event shapes.
func feedsAgree(t *testing.T, spec workloads.Spec, policy omp.WaitPolicy, coalesced, resumed *atomic.Int64) {
	app, err := spec.Build(workloads.BuildParams{Threads: 4, Input: workloads.InputTest, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	p := app.Prog
	log := exec.NewBlockLog(p)
	db := dcfg.NewBuilder(p, p.NumThreads())
	pb, err := pinball.RecordWithOptions(p, 1, exec.RunOpts{FlowWindow: 4096}, log, db)
	if err != nil {
		t.Fatal(err)
	}
	var headers []uint64
	modulus := map[uint64]uint64{}
	for _, h := range db.Graph().FindLoops().MainImageHeaders() {
		headers = append(headers, h.Addr)
		modulus[h.Addr] = uint64(p.NumThreads())
	}
	slice := pb.Schedule.Steps()/16 + 1
	configs := []struct {
		name    string
		markers []uint64
		slice   uint64
		set     func(*bbv.Collector)
	}{
		{"fixed", headers, slice, func(c *bbv.Collector) { c.SetMarkerModulus(modulus) }},
		{"variable", headers, slice, func(c *bbv.Collector) { c.SetVariableSlices(0.25, 0.5) }},
		{"barrier", []uint64{app.Runtime.BarrierReleaseAddr()}, 1, func(*bbv.Collector) {}},
	}
	isMarker := map[uint64]bool{app.Runtime.BarrierReleaseAddr(): true}
	for _, h := range headers {
		isMarker[h] = true
	}
	shapes := exec.BlockObserverFunc(func(ev *exec.BlockEvent) {
		if isMarker[ev.Block.Addr] && ev.Entries > 1 {
			coalesced.Add(1)
		}
		if isMarker[ev.Block.Addr] && ev.Entries > 0 && ev.FirstIdx > 0 {
			resumed.Add(1)
		}
	})
	cols := func() []*bbv.Collector {
		var out []*bbv.Collector
		for _, cfg := range configs {
			c := bbv.NewCollector(p, cfg.markers, cfg.slice)
			cfg.set(c)
			out = append(out, c)
		}
		return out
	}
	observers := func(cs []*bbv.Collector) []exec.BlockObserver {
		out := []exec.BlockObserver{shapes}
		for _, c := range cs {
			out = append(out, c)
		}
		return out
	}
	live, played, single, oracle := cols(), cols(), cols(), cols()
	if _, err := pb.Replay(p, observers(live)...); err != nil {
		t.Fatalf("replay: %v", err)
	}
	log.Play(observers(played)...)
	stepReplay(t, p, pb, func(ev *exec.BlockEvent) {
		for i, c := range oracle {
			c.OnInstr(ev)
			single[i].OnBlock(ev)
		}
	})
	for i, cfg := range configs {
		want := oracle[i].Finish()
		if got := live[i].Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the live replay's profile differs from the oracle's", cfg.name)
		}
		if got := played[i].Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the played log's profile differs from the oracle's", cfg.name)
		}
		if got := single[i].Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the profile of one-instruction events differs from the oracle's", cfg.name)
		}
	}
}

// stepReplay replays recording pb of p one instruction at a time —
// StepBlock with a budget of one over the recorded schedule — and hands
// fn every one-instruction event; the replay must end on the recording's
// memory, as Replay checks.
func stepReplay(tb testing.TB, p *isa.Program, pb *pinball.Pinball, fn func(*exec.BlockEvent)) {
	tb.Helper()
	m := exec.NewMachine(p, 0)
	if err := m.Restore(pb.Start); err != nil {
		tb.Fatal(err)
	}
	replay := exec.NewReplayOS(pb.Syscalls)
	m.OS = replay
	var ev exec.BlockEvent
	for _, e := range pb.Schedule {
		for i := uint32(0); i < e.N; i++ {
			if !m.StepBlock(e.Tid, 1, &ev) {
				tb.Fatalf("per-instruction replay: thread %d is %s", e.Tid, m.Threads[e.Tid].State)
			}
			fn(&ev)
		}
	}
	if replay.Diverged {
		tb.Fatal("per-instruction replay exhausted the syscall injection log")
	}
	if got := artifact.ChecksumWords(m.Mem); got != pb.FinalChecksum {
		tb.Fatalf("per-instruction replay ended on memory %#x, the recording on %#x", got, pb.FinalChecksum)
	}
}
