package omp_test

import (
	"math"
	"testing"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
)

// buildBarrierStress builds a program where N threads increment a shared
// counter non-atomically between barriers; correctness of the final value
// proves the barrier actually separates the phases: each thread reads the
// counter, crosses a barrier, writes counter+tid contributions in turn
// guarded by a lock.
func buildBarrierStress(nthreads int, rounds int64, policy omp.WaitPolicy) (*isa.Program, uint64, *omp.Runtime) {
	p := isa.NewProgram("barrier-stress", nthreads)
	sum := p.Alloc("sum", 1)
	perRound := p.Alloc("per_round", uint64(nthreads))
	main := p.AddImage("main", false)
	rt := omp.New(p, policy)
	bar := rt.NewBarrier("b")
	lock := rt.NewLock("l")

	r := main.NewRoutine("thread_main")
	entry := r.NewBlock("entry")
	loop := r.NewBlock("round")
	after := r.NewBlock("after")
	done := r.NewBlock("done")
	entry.IMovI(0, 0)
	entry.Br(loop)
	// Phase A: each thread writes its slot.
	loop.IOpI(isa.OpIAdd, 1, isa.RegTid, int64(perRound))
	loop.IOpI(isa.OpIAdd, 2, isa.RegTid, 1)
	loop.IStore(1, 0, 2)
	rt.EmitBarrier(loop, bar)
	// Phase B: thread 0 sums all slots under the lock (others just lock/unlock).
	rt.EmitLock(loop, lock)
	loop.Br(after)
	afterCrit := r.NewBlock("crit")
	skip := r.NewBlock("skip")
	after.BrCondI(isa.CondEQ, isa.RegTid, 0, afterCrit, skip)
	afterCrit.IMovI(3, 0) // i
	sumLoop := r.NewBlock("sum_loop")
	sumDone := r.NewBlock("sum_done")
	afterCrit.Br(sumLoop)
	sumLoop.IOpI(isa.OpIAdd, 4, 3, int64(perRound))
	sumLoop.ILoad(5, 4, 0)
	sumLoop.IMovI(6, int64(sum))
	sumLoop.ILoad(7, 6, 0)
	sumLoop.IOp(isa.OpIAdd, 7, 7, 5)
	sumLoop.IStore(6, 0, 7)
	sumLoop.IOpI(isa.OpIAdd, 3, 3, 1)
	sumLoop.BrCondI(isa.CondLT, 3, int64(nthreads), sumLoop, sumDone)
	sumDone.Br(skip)
	rt.EmitUnlock(skip, lock)
	rt.EmitBarrier(skip, bar)
	skip.IOpI(isa.OpIAdd, 0, 0, 1)
	skip.BrCondI(isa.CondLT, 0, rounds, loop, done)
	done.Halt()
	for tid := 0; tid < nthreads; tid++ {
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		panic(err)
	}
	return p, sum, rt
}

func TestBarrierAndLockCorrectness(t *testing.T) {
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		for _, n := range []int{2, 4, 8} {
			const rounds = 20
			p, sumAddr, _ := buildBarrierStress(n, rounds, policy)
			m := exec.NewMachine(p, 1)
			if err := m.Run(exec.RunOpts{Quantum: 13}); err != nil {
				t.Fatalf("policy %v n=%d: %v", policy, n, err)
			}
			want := int64(rounds) * int64(n*(n+1)/2)
			if got := int64(m.Mem[sumAddr]); got != want {
				t.Errorf("policy %v n=%d: sum = %d, want %d", policy, n, got, want)
			}
		}
	}
}

func TestDynNextDistributesAllChunks(t *testing.T) {
	const nthreads, total, chunk = 4, 96, 8
	p := isa.NewProgram("dyn", nthreads)
	ctr := p.Alloc("ctr", 1)
	claimed := p.Alloc("claimed", total)
	main := p.AddImage("main", false)
	rt := omp.New(p, omp.Passive)
	bar := rt.NewBarrier("join")

	r := main.NewRoutine("thread_main")
	head := r.NewBlock("head")
	body := r.NewBlock("body")
	mark := r.NewBlock("mark")
	done := r.NewBlock("done")
	rt.EmitDynNext(head, ctr, chunk, 8)
	head.BrCondI(isa.CondGE, 8, total, done, body)
	body.IMovI(0, 0)
	body.Br(mark)
	// Mark each claimed index once.
	mark.IOp(isa.OpIAdd, 1, 8, 0)
	mark.IOpI(isa.OpIAdd, 1, 1, int64(claimed))
	mark.ILoad(2, 1, 0)
	mark.IOpI(isa.OpIAdd, 2, 2, 1)
	mark.IStore(1, 0, 2)
	mark.IOpI(isa.OpIAdd, 0, 0, 1)
	mark.BrCondI(isa.CondLT, 0, chunk, mark, head)
	rt.EmitBarrier(done, bar)
	done.Halt()
	for tid := 0; tid < nthreads; tid++ {
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	m := exec.NewMachine(p, 1)
	if err := m.Run(exec.RunOpts{Quantum: 7}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < total; i++ {
		if got := m.Mem[claimed+i]; got != 1 {
			t.Fatalf("index %d claimed %d times, want exactly 1", i, got)
		}
	}
}

func TestReduceFAccumulatesAcrossThreads(t *testing.T) {
	const nthreads = 4
	p := isa.NewProgram("reduce", nthreads)
	acc := p.Alloc("acc", 1)
	main := p.AddImage("main", false)
	rt := omp.New(p, omp.Active)
	bar := rt.NewBarrier("join")
	lock := rt.NewLock("red")

	r := main.NewRoutine("thread_main")
	b := r.NewBlock("entry")
	// Each thread contributes float64(tid+1).
	b.ICvtF(0, isa.RegTid)
	b.FMovI(1, 1)
	b.FOp(isa.OpFAdd, 0, 0, 1)
	rt.EmitReduceF(b, lock, acc, 0)
	rt.EmitBarrier(b, bar)
	b.Halt()
	for tid := 0; tid < nthreads; tid++ {
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	m := exec.NewMachine(p, 1)
	if err := m.Run(exec.RunOpts{}); err != nil {
		t.Fatal(err)
	}
	got := math.Float64frombits(m.Mem[acc])
	if got != 1+2+3+4 {
		t.Errorf("reduction = %v, want 10", got)
	}
}

func TestGateReleasesAllThreads(t *testing.T) {
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		const nthreads = 4
		p := isa.NewProgram("gate", nthreads)
		flag := p.Alloc("done_flags", nthreads)
		main := p.AddImage("main", false)
		rt := omp.New(p, policy)
		gate := rt.NewGate("start")

		r := main.NewRoutine("thread_main")
		entry := r.NewBlock("entry")
		open := r.NewBlock("open")
		wait := r.NewBlock("wait")
		joined := r.NewBlock("joined")
		entry.BrCondI(isa.CondEQ, isa.RegTid, 0, open, wait)
		// Thread 0 does some work before opening, so waiters really park.
		open.IMovI(0, 0)
		spin := r.NewBlock("work")
		opened := r.NewBlock("opened")
		open.Br(spin)
		spin.IOpI(isa.OpIAdd, 0, 0, 1)
		spin.BrCondI(isa.CondLT, 0, 500, spin, opened)
		rt.EmitGateOpen(opened, gate)
		opened.Br(joined)
		rt.EmitGateWait(wait, gate)
		wait.Br(joined)
		joined.IOpI(isa.OpIAdd, 1, isa.RegTid, int64(flag))
		joined.IMovI(2, 1)
		joined.IStore(1, 0, 2)
		joined.Halt()
		for tid := 0; tid < nthreads; tid++ {
			p.SetEntry(tid, r)
		}
		if err := p.Link(); err != nil {
			t.Fatal(err)
		}
		m := exec.NewMachine(p, 1)
		if err := m.Run(exec.RunOpts{}); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
		for tid := 0; tid < nthreads; tid++ {
			if m.Mem[flag+uint64(tid)] != 1 {
				t.Errorf("policy %v: thread %d never passed the gate", policy, tid)
			}
		}
	}
}

func TestBarrierReleaseAddrIsSyncImage(t *testing.T) {
	p, _, rt := buildBarrierStress(2, 1, omp.Passive)
	addr := rt.BarrierReleaseAddr()
	blk, ok := p.BlockByAddr(addr)
	if !ok {
		t.Fatal("release address is not a block")
	}
	if !blk.Routine.Image.Sync {
		t.Error("barrier release block not in sync image")
	}
}

func TestWaitPolicyParse(t *testing.T) {
	if p, err := omp.ParseWaitPolicy("active"); err != nil || p != omp.Active {
		t.Error("parse active failed")
	}
	if p, err := omp.ParseWaitPolicy("passive"); err != nil || p != omp.Passive {
		t.Error("parse passive failed")
	}
	if _, err := omp.ParseWaitPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	if omp.Active.String() != "active" || omp.Passive.String() != "passive" {
		t.Error("policy strings wrong")
	}
}
