package dcfg

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
	"looppoint/internal/workloads"
)

type recording struct {
	prog       *isa.Program
	pb         *pinball.Pinball
	seed, flow uint64 // what pb was recorded with
}

func testRecordings(t *testing.T) map[string]recording {
	t.Helper()
	out := map[string]recording{}
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
		pb, err := pinball.RecordWithOptions(rec.prog, rec.seed, exec.RunOpts{FlowWindow: rec.flow})
		if err != nil {
			t.Fatalf("%s: %v", rec.name, err)
		}
		out[rec.name] = recording{rec.prog, pb, rec.seed, rec.flow}
	}
	return out
}

// replayGraph builds the whole-run graph from a constrained replay of the
// recording (block tier: Replay routes a BlockObserver there).
func replayGraph(t *testing.T, p *isa.Program, pb *pinball.Pinball) *Graph {
	t.Helper()
	db := NewBuilder(p, p.NumThreads())
	if _, err := pb.Replay(p, db); err != nil {
		t.Fatal(err)
	}
	return db.Graph()
}

// eventShapes counts the block-event shapes the differential suite must
// reach for its verdict to mean anything.
type eventShapes struct {
	midBlock      int // FirstIdx > 0: resumed after a futex wake, a budget split, a return
	coalesced     int // Entries > 1: back-to-back self-loop passes in one event
	parked        int // the event's last instruction parked the thread on a futex
	budgetSplit   int // the event ended mid-block for no reason but its budget
	resumeReentry int // a resumed partial pass followed by fresh entries in the same event
	calls, rets   int
}

func (s *eventShapes) add(o eventShapes) {
	s.midBlock += o.midBlock
	s.coalesced += o.coalesced
	s.parked += o.parked
	s.budgetSplit += o.budgetSplit
	s.resumeReentry += o.resumeReentry
	s.calls += o.calls
	s.rets += o.rets
}

func (s *eventShapes) note(ev *exec.BlockEvent) {
	last := &ev.Block.Instrs[(ev.FirstIdx+int(ev.Instrs)-1)%len(ev.Block.Instrs)]
	if ev.FirstIdx > 0 {
		s.midBlock++
		if ev.Entries > 0 {
			s.resumeReentry++
		}
	}
	if ev.Entries > 1 {
		s.coalesced++
	}
	switch {
	case ev.Blocked:
		s.parked++
	case last.Op == isa.OpCall:
		s.calls++
	case last.Op == isa.OpRet:
		s.rets++
	case len(ev.Woken) == 0 && last != &ev.Block.Instrs[len(ev.Block.Instrs)-1]:
		s.budgetSplit++
	}
}

// tierGraphs runs p twice from the same seed under the same scheduler
// options — recorded and stepped through per instruction by stepReplay
// (the oracle), and run on the block tier, where the quantum cuts passes
// mid-block — and returns both graphs.
func tierGraphs(t *testing.T, p *isa.Program, opts exec.RunOpts, shapes *eventShapes) (oracle, block *Graph) {
	t.Helper()
	pb, err := pinball.RecordWithOptions(p, 3, opts)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	ob := NewBuilder(p, p.NumThreads())
	stepReplay(t, p, pb, ob.OnInstr)
	oracle = ob.Graph()

	bb := NewBuilder(p, p.NumThreads())
	m := exec.NewMachine(p, 3)
	m.AddBlockObserver(exec.BlockObserverFunc(func(ev *exec.BlockEvent) {
		shapes.note(ev)
		bb.OnBlock(ev)
	}))
	if err := m.Run(opts); err != nil {
		t.Fatalf("block-tier run: %v", err)
	}
	return oracle, bb.Graph()
}

// requireSameGraph asserts everything downstream consumes: the graph
// itself (node and per-thread counts, edge kinds and trip counts, and the
// first-occurrence Out/In order), the loop table and the marker choice.
func requireSameGraph(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: block-tier graph differs from the per-instruction oracle (%v vs %v)", label, got, want)
	}
	gl, wl := got.FindLoops(), want.FindLoops()
	if !reflect.DeepEqual(gl, wl) {
		t.Fatalf("%s: loop tables differ", label)
	}
	for _, maxExecs := range []uint64{1, 64, 1 << 40} {
		if !reflect.DeepEqual(got.StableMarkers(gl, maxExecs), want.StableMarkers(wl, maxExecs)) {
			t.Fatalf("%s: stable markers differ at maxExecs=%d", label, maxExecs)
		}
	}
}

// selfLoopWithCall builds a program whose hot block is a self-loop that
// calls a library routine mid-block: every iteration is a call event, a
// callee event ending in the return, and a resumed partial pass that
// re-enters the block through its own back edge.
func selfLoopWithCall(t *testing.T, nthreads int, iters int64) *isa.Program {
	t.Helper()
	p := isa.NewProgram("selfloop-call", nthreads)
	lib := p.AddImage("lib", false).NewRoutine("leaf")
	lb := lib.NewBlock("entry")
	lb.IOpI(isa.OpIAdd, 3, 3, 1)
	lb.Ret()

	r := p.AddImage("main", false).NewRoutine("main")
	entry := r.NewBlock("entry")
	loop := r.NewBlock("loop")
	done := r.NewBlock("done")
	entry.IMovI(0, 0)
	entry.Br(loop)
	loop.IOpI(isa.OpIAdd, 0, 0, 1)
	loop.Call(lib)
	loop.IOpI(isa.OpIAdd, 2, 2, 1)
	loop.BrCondI(isa.CondLT, 0, iters, loop, done)
	done.Halt()
	for tid := 0; tid < nthreads; tid++ {
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

// TestBlockTierMatchesInstrOracle is the differential pin for the block
// tier: over hand-built programs and every registered workload, at
// several scheduling quanta, OnBlock must build exactly the graph OnInstr
// builds.
func TestBlockTierMatchesInstrOracle(t *testing.T) {
	type prog struct {
		name string
		p    *isa.Program
	}
	progs := []prog{
		{"selfloop-call", selfLoopWithCall(t, 2, 50)},
		{"phased-passive", testprog.Phased(4, 3, 40, omp.Passive)},
		{"phased-active", testprog.Phased(3, 2, 20, omp.Active)},
		{"hetero", testprog.Heterogeneous(4, 3, 30, omp.Passive)},
		{"syscalls", testprog.WithSyscalls(4, 60, omp.Passive)},
	}
	for _, spec := range workloads.All() {
		for _, threads := range []int{2, 4} {
			for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
				app, err := spec.Build(workloads.BuildParams{Threads: threads, Input: workloads.InputTest, Policy: policy})
				if err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
				progs = append(progs, prog{fmt.Sprintf("%s/%d/%v", spec.Name, threads, policy), app.Prog})
			}
		}
	}

	var (
		mu     sync.Mutex
		shapes eventShapes
	)
	t.Run("programs", func(t *testing.T) {
		for _, pr := range progs {
			t.Run(pr.name, func(t *testing.T) {
				t.Parallel()
				var seen eventShapes
				for _, q := range []int{1, 7, 64} {
					opts := exec.RunOpts{Quantum: q, FlowWindow: 4096}
					oracle, block := tierGraphs(t, pr.p, opts, &seen)
					requireSameGraph(t, fmt.Sprintf("quantum=%d", q), block, oracle)
				}
				mu.Lock()
				shapes.add(seen)
				mu.Unlock()
			})
		}
	})
	for name, n := range map[string]int{
		"mid-block resumption":          shapes.midBlock,
		"coalesced self-loop passes":    shapes.coalesced,
		"futex-parked events":           shapes.parked,
		"budget splits":                 shapes.budgetSplit,
		"resumed pass then fresh entry": shapes.resumeReentry,
		"calls":                         shapes.calls,
		"returns":                       shapes.rets,
	} {
		if n == 0 {
			t.Errorf("the suite never produced an event with %s", name)
		}
	}
}

// TestGraphStateRoundTrip pins the graph's saved state round trip exact: the
// block log that rode the recording beside the builder, saved
// (AppendBinary), decoded against the pinball's schedule and played into a
// fresh builder, rebuilds a graph DeepEqual to the one built on the
// recording, including Node.Out/In insertion order and the unexported edge
// map. A resumed analysis rebuilds its graph this way.
func TestGraphStateRoundTrip(t *testing.T) {
	for name, w := range testRecordings(t) {
		t.Run(name, func(t *testing.T) {
			log := exec.NewBlockLog(w.prog)
			db := NewBuilder(w.prog, w.prog.NumThreads())
			pb, err := pinball.RecordWithOptions(w.prog, w.seed, exec.RunOpts{FlowWindow: w.flow}, log, db)
			if err != nil {
				t.Fatal(err)
			}
			saved, err := exec.DecodeBlockLog(w.prog, pb.Schedule, log.AppendBinary(nil))
			if err != nil {
				t.Fatal(err)
			}
			restored := NewBuilder(w.prog, w.prog.NumThreads())
			restored.ReadLog(saved)
			if !reflect.DeepEqual(restored.Graph(), db.Graph()) {
				t.Fatal("graph rebuilt from the saved log differs from the one built on the recording")
			}
		})
	}
}

// TestBlockTierMatchesInstrOracleOnReplay: the same identity through the
// replay entry points — Replay feeds the builder block events, stepReplay
// feeds the oracle every instruction — and a builder fed those
// one-instruction events through OnBlock builds the oracle's graph too.
func TestBlockTierMatchesInstrOracleOnReplay(t *testing.T) {
	for name, w := range testRecordings(t) {
		ob, single := NewBuilder(w.prog, w.prog.NumThreads()), NewBuilder(w.prog, w.prog.NumThreads())
		stepReplay(t, w.prog, w.pb, func(ev *exec.BlockEvent) {
			ob.OnInstr(ev)
			single.OnBlock(ev)
		})
		requireSameGraph(t, name, replayGraph(t, w.prog, w.pb), ob.Graph())
		requireSameGraph(t, name+" one instruction an event", single.Graph(), ob.Graph())
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
