package exec

import (
	"runtime"
	"testing"
	"unsafe"

	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/workloads"
)

// referenceDecode is the per-machine block decode that isa.Program.Link's
// ALULen/SelfLoop replaced, kept as their oracle with its own opcode list.
// blkIdx is the block's index within its routine.
func referenceDecode(blk *isa.Block, blkIdx int) (aluLen int, selfLoop bool) {
	for i := range blk.Instrs {
		switch blk.Instrs[i].Op {
		case isa.OpNop, isa.OpPause,
			isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIDiv, isa.OpIRem,
			isa.OpIAnd, isa.OpIOr, isa.OpIXor, isa.OpIShl, isa.OpIShr,
			isa.OpIMov, isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv,
			isa.OpFMov, isa.OpFMA, isa.OpFSqrt, isa.OpFCmp,
			isa.OpICvtF, isa.OpFCvtI:
			aluLen++
			continue
		}
		break
	}
	switch term := blk.Instrs[len(blk.Instrs)-1]; term.Op {
	case isa.OpBr:
		selfLoop = term.Target == blkIdx
	case isa.OpBrCond:
		selfLoop = (term.Target == blkIdx) != (term.Else == blkIdx)
	}
	return aluLen, selfLoop
}

// TestBlockFactsMatchDecode checks the Link-time block facts against the
// decode they replaced on every block of every registered workload.
func TestBlockFactsMatchDecode(t *testing.T) {
	blocks, selfLoops, computeRuns := 0, 0, 0
	for _, spec := range workloads.All() {
		for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
			app, err := spec.Build(workloads.BuildParams{Threads: 4, Input: workloads.InputTest, Policy: policy})
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			for _, img := range app.Prog.Images {
				for _, rt := range img.Routines {
					for i, blk := range rt.Blocks {
						aluLen, selfLoop := referenceDecode(blk, i)
						if blk.ALULen != aluLen || blk.SelfLoop != selfLoop {
							t.Errorf("%s %s: Link says ALULen=%d SelfLoop=%v, decode says %d %v",
								spec.Name, blk, blk.ALULen, blk.SelfLoop, aluLen, selfLoop)
						}
						blocks++
						if selfLoop {
							selfLoops++
						}
						if aluLen > 0 {
							computeRuns++
						}
					}
				}
			}
		}
	}
	if t.Failed() {
		t.FailNow() // the interpreter cannot be trusted with wrong facts
	}
	if selfLoops == 0 || computeRuns == 0 {
		t.Fatalf("of %d blocks, %d self-loops and %d with a compute run: nothing compared", blocks, selfLoops, computeRuns)
	}
}

// TestRecordScheduleTraffic bounds what recording costs beyond the
// schedule itself: over a run of thousands of quanta the bytes allocated
// on the schedule's behalf stay within 2.5× its final size (chunks filled
// once plus one exact-size concatenation; growing one slice by append
// allocates ≈ 5× and re-copies as much). The allocation of the same run
// without a recorder is subtracted.
func TestRecordScheduleTraffic(t *testing.T) {
	p, _ := buildCounterProgram(t, 4, 100_000, omp.Passive)
	run := func(rec *Schedule) uint64 {
		m := NewMachine(p, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := m.Run(RunOpts{Quantum: 16, Record: rec}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	bare := run(nil)
	var sched Schedule
	traffic := run(&sched) - bare
	size := uint64(len(sched)) * uint64(unsafe.Sizeof(ScheduleEntry{}))
	if len(sched) < 8*recordChunk {
		t.Fatalf("schedule has %d entries; the test needs several chunks", len(sched))
	}
	if cap(sched) != len(sched) {
		t.Errorf("schedule has capacity %d for %d entries, want exact", cap(sched), len(sched))
	}
	if traffic > size*5/2 {
		t.Errorf("recording allocated %d bytes for a %d-byte schedule (%.2fx), want <= 2.5x", traffic, size, float64(traffic)/float64(size))
	}
	t.Logf("%d entries, %d bytes; recording allocated %d (%.2fx), the bare run %d", len(sched), size, traffic, float64(traffic)/float64(size), bare)
}

// TestBlockLogTraffic bounds what keeping the block-event log costs, on the
// benchmark's short-block application (657.xz_s.2, ≈ 3.5 instructions per
// event): at most half a byte per retired instruction and two per event,
// nothing allocated per event — only the chunks, with the same run under a
// counting observer subtracted — and a log Play leaves whole, so a second
// Play re-emits every instruction again. A fatter encoding fails here before it shows up as resident memory in the
// end-to-end benchmark.
func TestBlockLogTraffic(t *testing.T) {
	spec, _ := workloads.Lookup("657.xz_s.2")
	app, err := spec.Build(workloads.BuildParams{Input: workloads.InputTrain, Policy: omp.Passive})
	if err != nil {
		t.Fatal(err)
	}
	var events, instrs uint64
	count := BlockObserverFunc(func(ev *BlockEvent) { events++; instrs += ev.Instrs })
	run := func(o BlockObserver) uint64 {
		m := NewMachine(app.Prog, 1)
		m.AddBlockObserver(o)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := m.Run(RunOpts{FlowWindow: 4096}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	bare := run(count)
	log := NewBlockLog(app.Prog)
	allocs := run(log) - bare

	chunks, size := uint64(0), uint64(0)
	for c := log.head; c != nil; c = c.next {
		chunks++
		size += uint64(c.n)
	}
	if chunks < 8 {
		t.Fatalf("the log has %d chunks; the test needs several", chunks)
	}
	if perInstr := float64(size) / float64(instrs); perInstr > 0.5 {
		t.Errorf("log is %d bytes for %d instructions (%.3f B/instr), want <= 0.5", size, instrs, perInstr)
	}
	if perEvent := float64(size) / float64(events); perEvent > 2 {
		t.Errorf("log is %d bytes for %d events (%.2f B/event), want <= 2", size, events, perEvent)
	}
	if allocs > size/blockLogChunkBytes+2 {
		t.Errorf("logging allocated %d objects for %d chunks, want only the chunks", allocs, chunks)
	}
	for round := 1; round <= 2; round++ {
		var played uint64
		log.Play(BlockObserverFunc(func(ev *BlockEvent) { played += ev.Instrs }))
		if played != instrs {
			t.Errorf("Play %d re-emitted %d instructions of %d", round, played, instrs)
		}
	}
	t.Logf("%d events, %d instructions: %d bytes in %d chunks (%.3f B/instr, %.2f B/event), %d allocations",
		events, instrs, size, chunks, float64(size)/float64(instrs), float64(size)/float64(events), allocs)
}
