package bbv

import (
	"reflect"
	"testing"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
)

// profileBoth runs the same program on the block-batched tier and then
// steps its recorded schedule through OnInstr one instruction at a time
// (cfg tweaks applied to both collectors), and returns the per-instruction
// and block profiles for comparison.
func profileBoth(t *testing.T, build func() *isa.Program, addrs []uint64, slice uint64,
	cfg func(*Collector)) (perInstr, block *Profile) {
	t.Helper()
	collector := func(p *isa.Program) *Collector {
		c := NewCollector(p, addrs, slice)
		if cfg != nil {
			cfg(c)
		}
		return c
	}
	p := build()
	m := exec.NewMachine(p, 1)
	bc := collector(p)
	m.AddBlockObserver(bc)
	var sched exec.Schedule
	if err := m.Run(exec.RunOpts{FlowWindow: 1000, Record: &sched}); err != nil {
		t.Fatalf("block run: %v", err)
	}
	p = build()
	return stepProfile(t, p, sched, collector(p)), bc.Finish()
}

// stepProfile is the oracle: it steps sched on a fresh machine one
// instruction at a time (StepBlock with a budget of one) into c.OnInstr
// and returns c's profile.
func stepProfile(t *testing.T, p *isa.Program, sched exec.Schedule, c *Collector) *Profile {
	t.Helper()
	m := exec.NewMachine(p, 1)
	var ev exec.BlockEvent
	for _, e := range sched {
		for i := uint32(0); i < e.N; i++ {
			if !m.StepBlock(e.Tid, 1, &ev) {
				t.Fatalf("per-instruction replay: thread %d is %s", e.Tid, m.Threads[e.Tid].State)
			}
			c.OnInstr(&ev)
		}
	}
	return c.Finish()
}

func requireProfilesEqual(t *testing.T, perInstr, block *Profile) {
	t.Helper()
	if len(perInstr.Regions) != len(block.Regions) {
		t.Fatalf("region counts differ: per-instr %d, block %d",
			len(perInstr.Regions), len(block.Regions))
	}
	for i := range perInstr.Regions {
		if !reflect.DeepEqual(perInstr.Regions[i], block.Regions[i]) {
			t.Errorf("region %d differs:\nper-instr: %+v\nblock:     %+v",
				i, perInstr.Regions[i], block.Regions[i])
		}
	}
	if !reflect.DeepEqual(perInstr, block) {
		t.Fatal("profiles differ between per-instruction and block tiers")
	}
}

// TestCollectorBlockTierMatchesPerInstr is the profiling half of the
// fast-path acceptance criterion: BBVs, region markers, filtered counts,
// and marker totals must be byte-identical between tiers, across every
// slicing mode.
func TestCollectorBlockTierMatchesPerInstr(t *testing.T) {
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		policy := policy
		name := "passive"
		if policy == omp.Active {
			name = "active"
		}
		build := func() *isa.Program { return buildPhased(t, 4, 6, 150, policy) }
		addrs := markerAddrs(t, build())

		t.Run(name+"/fixed", func(t *testing.T) {
			a, b := profileBoth(t, build, addrs, 4*1200, nil)
			requireProfilesEqual(t, a, b)
		})
		t.Run(name+"/variable", func(t *testing.T) {
			a, b := profileBoth(t, build, addrs, 4*1200,
				func(c *Collector) { c.SetVariableSlices(0.1, 0.5) })
			requireProfilesEqual(t, a, b)
		})
		t.Run(name+"/modulus", func(t *testing.T) {
			a, b := profileBoth(t, build, addrs, 4*1200,
				func(c *Collector) {
					mm := make(map[uint64]uint64)
					for _, addr := range addrs {
						mm[addr] = 4
					}
					c.SetMarkerModulus(mm)
				})
			requireProfilesEqual(t, a, b)
		})
		t.Run(name+"/nosyncfilter", func(t *testing.T) {
			a, b := profileBoth(t, build, addrs, 4*1200,
				func(c *Collector) { c.DisableSyncFilter() })
			requireProfilesEqual(t, a, b)
		})
		t.Run(name+"/byicount", func(t *testing.T) {
			a, b := profileBoth(t, build, nil, 4*1200,
				func(c *Collector) { c.SliceOnICount() })
			requireProfilesEqual(t, a, b)
		})
	}
}

// TestCollectorAsBareObserverMatchesPerInstr: the collector asks nothing
// of the engine. Attached to a live run as a bare BlockObserverFunc, it
// receives its markers' entries coalesced with the passes around them and
// still builds the per-instruction oracle's profile.
func TestCollectorAsBareObserverMatchesPerInstr(t *testing.T) {
	p := buildPhased(t, 2, 3, 80, omp.Passive)
	addrs := markerAddrs(t, p)
	isMarker := map[uint64]bool{}
	for _, a := range addrs {
		isMarker[a] = true
	}
	c := NewCollector(p, addrs, 2*500)
	coalesced := 0
	m := exec.NewMachine(p, 1)
	m.AddBlockObserver(exec.BlockObserverFunc(func(ev *exec.BlockEvent) {
		if isMarker[ev.Block.Addr] && ev.Entries > 0 && ev.Instrs > 1 {
			coalesced++
		}
		c.OnBlock(ev)
	}))
	var sched exec.Schedule
	if err := m.Run(exec.RunOpts{FlowWindow: 1000, Record: &sched}); err != nil {
		t.Fatal(err)
	}
	if coalesced == 0 {
		t.Fatal("no marker entry arrived coalesced; the collector split nothing")
	}
	requireProfilesEqual(t, stepProfile(t, p, sched, NewCollector(p, addrs, 2*500)), c.Finish())
}

// handProgram links a one-thread program that is never run, only named by
// hand-built events: entry (two instructions), loop (a four-instruction
// self-loop) and spin (a one-instruction self-loop).
func handProgram(t *testing.T) (p *isa.Program, entry, loop, spin *isa.Block) {
	t.Helper()
	p = isa.NewProgram("hand", 1)
	r := p.AddImage("main", false).NewRoutine("main")
	entry, loop, spin = r.NewBlock("entry"), r.NewBlock("loop"), r.NewBlock("spin")
	done := r.NewBlock("done")
	entry.IMovI(0, 0).Br(loop)
	loop.IOpI(isa.OpIAdd, 0, 0, 1).IOpI(isa.OpIAdd, 1, 1, 2).IOpI(isa.OpIAdd, 2, 2, 3).BrCondI(isa.CondLT, 0, 100, loop, spin)
	spin.BrCondI(isa.CondLT, 0, 200, spin, done)
	done.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p, entry, loop, spin
}

// TestCollectorSplitsMarkerEvents feeds hand-built events that enter a
// marker block to OnBlock, and each instruction they stand for to the
// OnInstr oracle, and requires the same profile. A slice target of five
// puts a region boundary on most marker entries, so an entry counted one
// instruction early or late moves a region's end.
func TestCollectorSplitsMarkerEvents(t *testing.T) {
	p, entry, loop, spin := handProgram(t)
	for _, c := range []struct {
		name string
		evs  []exec.BlockEvent
	}{
		{"self-loop", []exec.BlockEvent{{Block: entry, Entries: 1, Instrs: 2}, {Block: loop, Entries: 5, Instrs: 20}}},
		{"resumed", []exec.BlockEvent{{Block: loop, Entries: 1, Instrs: 2}, {Block: loop, FirstIdx: 2, Entries: 3, Instrs: 14}}},
		{"cut short", []exec.BlockEvent{{Block: loop, Entries: 3, Instrs: 10}, {Block: loop, FirstIdx: 2, Instrs: 2}}},
		{"resumed and cut short", []exec.BlockEvent{{Block: loop, Entries: 1, Instrs: 3}, {Block: loop, FirstIdx: 3, Entries: 2, Instrs: 7}}},
		{"one-instruction passes", []exec.BlockEvent{{Block: spin, Entries: 4, Instrs: 4}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			block := NewCollector(p, []uint64{loop.Addr, spin.Addr}, 5)
			oracle := NewCollector(p, []uint64{loop.Addr, spin.Addr}, 5)
			for range 3 {
				for i := range c.evs {
					ev := &c.evs[i]
					block.OnBlock(ev)
					entries := ev.Entries
					for k := range ev.Instrs {
						one := exec.BlockEvent{Tid: ev.Tid, Block: ev.Block, FirstIdx: (ev.FirstIdx + int(k)) % len(ev.Block.Instrs), Instrs: 1}
						if one.FirstIdx == 0 && entries > 0 {
							one.Entries = 1
							entries--
						}
						oracle.OnInstr(&one)
					}
				}
			}
			a, b := oracle.Finish(), block.Finish()
			if len(a.Regions) < 3 {
				t.Fatalf("the events closed %d regions; the slice target no longer lands on marker entries", len(a.Regions))
			}
			requireProfilesEqual(t, a, b)
		})
	}
}

// TestCollectorOnBlockAllocFree pins the block tier's steady state: once a
// region has seen a block, further events of it — marker entries included —
// allocate nothing (an add into the thread's accumulator; no map, no
// touched-list growth).
func TestCollectorOnBlockAllocFree(t *testing.T) {
	p := buildPhased(t, 4, 6, 150, omp.Passive)
	c := NewCollector(p, markerAddrs(t, buildPhased(t, 4, 6, 150, omp.Passive)), 1<<40) // never closes a region
	var events []exec.BlockEvent
	m := exec.NewMachine(p, 1)
	m.AddBlockObserver(c) // the warm-up pass
	m.AddBlockObserver(exec.BlockObserverFunc(func(ev *exec.BlockEvent) {
		events = append(events, exec.BlockEvent{Tid: ev.Tid, Block: ev.Block, FirstIdx: ev.FirstIdx, Entries: ev.Entries, Instrs: ev.Instrs})
	}))
	if err := m.Run(exec.RunOpts{FlowWindow: 1000}); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		for i := range events {
			c.OnBlock(&events[i])
		}
	}); allocs != 0 {
		t.Errorf("%v allocations per replay of %d block events, want 0", allocs, len(events))
	}
	if got, want := c.Finish().TotalICount, 7*m.TotalICount(); got != want { // warm-up + AllocsPerRun's 1+5
		t.Errorf("collector counted %d instructions, want %d", got, want)
	}
}
