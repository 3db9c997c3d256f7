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
	m = exec.NewMachine(p, 1)
	ic := collector(p)
	for _, e := range sched {
		for i := uint32(0); i < e.N; i++ {
			ev, ok := m.Step(e.Tid)
			if !ok {
				t.Fatalf("per-instruction replay: thread %d is %s", e.Tid, m.Threads[e.Tid].State)
			}
			ic.OnInstr(ev)
		}
	}
	return ic.Finish(), bc.Finish()
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

// TestCollectorPanicsOnUnregisteredMarker documents the contract: marker
// PCs must be break PCs before block-tier profiling starts.
func TestCollectorPanicsOnUnregisteredMarker(t *testing.T) {
	p := buildPhased(t, 2, 3, 80, omp.Passive)
	addrs := markerAddrs(t, buildPhased(t, 2, 3, 80, omp.Passive))
	m := exec.NewMachine(p, 1)
	c := NewCollector(p, addrs, 2*500)
	// Wrongly attached as a bare BlockObserverFunc: BreakPCs never runs.
	m.AddBlockObserver(exec.BlockObserverFunc(c.OnBlock))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for coalesced marker entry")
		}
	}()
	_ = m.Run(exec.RunOpts{FlowWindow: 1000})
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
	m.AddBlockObserver(c) // the warm-up pass; registers the break PCs
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
