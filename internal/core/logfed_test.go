package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/workloads"
)

// TestLogFedMatchesOnBlock pins the analysis's one path after the
// recording: the DCFG and the profile read straight from the recording's
// block log are DeepEqual to the ones OnBlock builds from the same run —
// the graph of a builder riding the recording, the profile of a collector
// handed every logged event through OnBlock. It covers every registered
// workload at test and train input under both wait policies, at fixed and
// variable slices (the 208 cases), plus the spin filter off and raw
// instruction-count slicing, both for the log as recorded and for the
// log read back through DecodeBlockLog (a resume's).
func TestLogFedMatchesOnBlock(t *testing.T) {
	var cases atomic.Int64
	t.Run("workloads", func(t *testing.T) {
		for _, spec := range workloads.All() {
			for _, input := range []workloads.InputClass{workloads.InputTest, workloads.InputTrain} {
				for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
					t.Run(fmt.Sprintf("%s/%s/%v", spec.Name, input, policy), func(t *testing.T) {
						t.Parallel()
						app, err := spec.Build(workloads.BuildParams{Threads: 4, Input: input, Policy: policy})
						if err != nil {
							t.Fatal(err)
						}
						cases.Add(int64(logFedAgrees(t, app.Prog)))
					})
				}
			}
		}
	})
	if n, want := cases.Load(), int64(len(workloads.All())*2*2*2); !t.Failed() && n != want {
		t.Fatalf("%d fixed and variable slice cases compared, want %d", n, want)
	}
}

// TestLogFedMatchesOnBlockTwoByteRecords is the same identity on a
// program of more than 64 blocks, whose common records take two bytes
// (no registered workload has that many).
func TestLogFedMatchesOnBlockTwoByteRecords(t *testing.T) {
	p := wideProgram(4, 80, 40)
	if p.NumBlocks() <= 64 {
		t.Fatalf("the wide program has %d blocks, want more than 64", p.NumBlocks())
	}
	logFedAgrees(t, p)
}

// logFedAgrees records p as Analyze does, with a builder riding the
// recording beside the log, and compares the log-fed graph and profiles
// with the OnBlock-fed ones under each collector variant. It returns how
// many fixed and variable slice cases it compared.
func logFedAgrees(t *testing.T, p *isa.Program) int {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SliceUnit = 2000
	cfg.fill()
	log := exec.NewBlockLog(p)
	ridden := dcfg.NewBuilder(p, p.NumThreads())
	pb, err := Record(p, &cfg, log, ridden)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := exec.DecodeBlockLog(p, pb.Schedule, log.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := ridden.Graph()
	if wide := p.NumBlocks() > 64; wide {
		entered := false
		for g, n := range want.Nodes {
			entered = entered || g >= 64 && n.Execs > 0
		}
		if !entered {
			t.Fatal("no block past the 64th was entered: the log has no two-byte common record")
		}
	}
	variants := []struct {
		name string
		cfg  func(*Config)
		col  func(*bbv.Collector)
	}{
		{"fixed", func(*Config) {}, func(*bbv.Collector) {}},
		{"variable", func(c *Config) { c.VariableSlices = true }, func(*bbv.Collector) {}},
		{"nospinfilter", func(c *Config) { c.NoSpinFilter = true }, func(*bbv.Collector) {}},
		{"icount", func(*Config) {}, (*bbv.Collector).SliceOnICount},
	}
	compared := 0
	for _, l := range []struct {
		name string
		log  *exec.BlockLog
	}{{"recorded", log}, {"decoded", saved}} {
		got := logGraph(p, l.log)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s log: the log-fed graph differs from the OnBlock-fed one (%v vs %v)", l.name, got, want)
		}
		for _, v := range variants {
			vcfg := cfg
			v.cfg(&vcfg)
			fed, read := logFedCollector(t, p, &vcfg, pb, want), logFedCollector(t, p, &vcfg, pb, got)
			v.col(fed)
			v.col(read)
			r := l.log.Reader()
			for {
				rec, _ := r.Records()
				ev := r.Next(rec)
				if ev == nil {
					break
				}
				fed.OnBlock(ev)
			}
			read.ReadLog(l.log)
			if w, g := fed.Finish(), read.Finish(); !reflect.DeepEqual(g, w) {
				t.Errorf("%s log, %s: the log-fed profile differs from the OnBlock-fed one (%d vs %d regions, totals %d/%d vs %d/%d)",
					l.name, v.name, len(g.Regions), len(w.Regions), g.TotalFiltered, g.TotalICount, w.TotalFiltered, w.TotalICount)
			}
			if l.log == log && (v.name == "fixed" || v.name == "variable") {
				compared++
			}
		}
	}
	return compared
}

// logGraph builds the DCFG from a block log.
func logGraph(p *isa.Program, log *exec.BlockLog) *dcfg.Graph {
	db := dcfg.NewBuilder(p, p.NumThreads())
	db.ReadLog(log)
	return db.Graph()
}

// logFedCollector is newCollector's collector, for a test that must
// configure it further before feeding it.
func logFedCollector(t *testing.T, p *isa.Program, cfg *Config, pb *pinball.Pinball, g *dcfg.Graph) *bbv.Collector {
	t.Helper()
	_, col, err := newCollector(p, cfg, pb, g)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// wideProgram builds an nthreads-thread program whose timestep loop runs
// through a chain of chain blocks — a self-loop among them, and every
// tenth calling a two-block leaf routine — between two barriers, so that
// a run enters blocks past the 64th, through common records, calls,
// returns and thread switches.
func wideProgram(nthreads, chain int, timesteps int64) *isa.Program {
	p := isa.NewProgram(fmt.Sprintf("wide-%dt", nthreads), nthreads)
	main := p.AddImage("main", false)
	rt := omp.New(p, omp.Passive)
	bar := rt.NewBarrier("step")

	leaf := main.NewRoutine("leaf")
	top, tail := leaf.NewBlock("top"), leaf.NewBlock("tail")
	top.IOpI(isa.OpIAdd, 6, 6, 3)
	top.Br(tail)
	tail.IOpI(isa.OpIXor, 6, 6, 5)
	tail.Ret()

	r := main.NewRoutine("thread_main")
	entry, step := r.NewBlock("entry"), r.NewBlock("timestep")
	links := make([]*isa.Block, chain)
	for i := range links {
		links[i] = r.NewBlock(fmt.Sprintf("link%d", i))
	}
	latch, done := r.NewBlock("latch"), r.NewBlock("done")
	entry.IMovI(0, 0)
	entry.Br(step)
	step.IMovI(1, 0)
	step.Br(links[0])
	for i, b := range links {
		next := latch
		if i+1 < chain {
			next = links[i+1]
		}
		b.IOpI(isa.OpIAdd, 2, 2, int64(i))
		switch {
		case i == chain/2:
			// A self-loop whose trip count differs per thread.
			b.IOpI(isa.OpIAdd, 1, 1, 1)
			b.IOpI(isa.OpIAdd, 3, isa.RegTid, 20)
			b.BrCond(isa.CondLT, 1, 3, b, next)
			continue
		case i%10 == 3:
			b.Call(leaf)
		}
		b.Br(next)
	}
	rt.EmitBarrier(latch, bar)
	latch.IOpI(isa.OpIAdd, 0, 0, 1)
	latch.BrCondI(isa.CondLT, 0, timesteps, step, done)
	done.Halt()
	for tid := 0; tid < nthreads; tid++ {
		p.SetEntry(tid, r)
	}
	if err := p.Link(); err != nil {
		panic(err)
	}
	return p
}
