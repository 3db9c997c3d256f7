package timing

import (
	"math/rand"
	"reflect"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// refCache is Cache as it was first written — set and tag from % and /,
// a valid flag beside the tag — kept as the reference the mask-indexed,
// key-packed Cache is compared against.
type refCache struct {
	sets      [][]refLine
	next      *refCache
	lineShift uint

	accesses, misses uint64
}

type refLine struct {
	tag   uint64
	valid bool
	lru   uint64
}

func newRefCache(cfg CacheConfig, next *refCache) *refCache {
	c := &refCache{next: next, sets: make([][]refLine, cfg.Sets())}
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Assoc)
	}
	for v := cfg.LineBytes; v > 1; v >>= 1 {
		c.lineShift++
	}
	return c
}

func (c *refCache) locate(addr uint64) ([]refLine, uint64) {
	line := addr >> c.lineShift
	n := uint64(len(c.sets))
	return c.sets[line%n], line / n
}

func (c *refCache) fill(ways []refLine, tag, clock uint64) {
	victim := 0
	for i := 1; i < len(ways); i++ {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = refLine{tag: tag, valid: true, lru: clock}
}

func (c *refCache) access(addr, clock uint64) int {
	ways, tag := c.locate(addr)
	c.accesses++
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = clock
			return 1
		}
	}
	c.misses++
	below := 1
	if c.next != nil {
		below = c.next.access(addr, clock)
	}
	c.fill(ways, tag, clock)
	return below + 1
}

func (c *refCache) fillQuiet(addr, clock uint64) {
	ways, tag := c.locate(addr)
	hit := false
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = clock
			hit = true
		}
	}
	if !hit {
		c.fill(ways, tag, clock)
	}
	if c.next != nil {
		c.next.fillQuiet(addr, clock)
	}
}

func (c *refCache) invalidate(addr uint64) {
	ways, tag := c.locate(addr)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].valid = false
		}
	}
}

func (c *refCache) contains(addr uint64) bool {
	ways, tag := c.locate(addr)
	for _, w := range ways {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// TestCacheIndexMatchesDivModReference: on a random stream of accesses,
// quiet fills and invalidations, a two-level hierarchy returns the hit
// levels, counts the accesses and misses, and holds exactly the lines
// (so evicts in the order) of the %,/ reference — for a power-of-two set
// count, which takes the mask and shift, and for three sets, which cannot.
func TestCacheIndexMatchesDivModReference(t *testing.T) {
	l2cfg := CacheConfig{Name: "L2", SizeBytes: 2048, Assoc: 4, LineBytes: 64, Latency: 8}
	for _, l1cfg := range []CacheConfig{
		{Name: "pow2", SizeBytes: 512, Assoc: 2, LineBytes: 64, Latency: 1},  // 4 sets
		{Name: "three", SizeBytes: 384, Assoc: 2, LineBytes: 64, Latency: 1}, // 3 sets
	} {
		for _, l2sets := range []int{8, 6} {
			l2cfg.SizeBytes = l2sets * l2cfg.Assoc * l2cfg.LineBytes
			l2 := NewCache(l2cfg, nil)
			l1 := NewCache(l1cfg, l2)
			if l1.pow2 != (l1cfg.Name == "pow2") || l2.pow2 != (l2sets == 8) {
				t.Fatalf("%s over %d sets: mask path chosen for %v/%v", l1cfg.Name, l2sets, l1.pow2, l2.pow2)
			}
			r2 := newRefCache(l2cfg, nil)
			r1 := newRefCache(l1cfg, r2)

			const universe = 64 * 64 // 64 lines: every set overflows
			rng := rand.New(rand.NewSource(int64(l1cfg.SizeBytes + l2sets)))
			for clock := uint64(1); clock <= 20000; clock++ {
				addr := uint64(rng.Intn(universe))
				switch op := rng.Intn(10); {
				case op < 7:
					if got, want := l1.Access(addr, clock), r1.access(addr, clock); got != want {
						t.Fatalf("%s/%d clock %d: access %#x hit level %d, reference %d", l1cfg.Name, l2sets, clock, addr, got, want)
					}
				case op < 8:
					l1.FillQuiet(addr, clock)
					r1.fillQuiet(addr, clock)
				case op < 9:
					l1.Invalidate(addr)
					r1.invalidate(addr)
				default:
					l2.Invalidate(addr)
					r2.invalidate(addr)
				}
				if clock%50 == 0 {
					for a := uint64(0); a < universe; a += 64 {
						if l1.Contains(a) != r1.contains(a) || l2.Contains(a) != r2.contains(a) {
							t.Fatalf("%s/%d clock %d: residency of %#x differs from the reference", l1cfg.Name, l2sets, clock, a)
						}
					}
				}
			}
			if l1.Accesses != r1.accesses || l1.Misses != r1.misses || l2.Accesses != r2.accesses || l2.Misses != r2.misses {
				t.Errorf("%s/%d: counters L1 %d/%d L2 %d/%d, reference L1 %d/%d L2 %d/%d", l1cfg.Name, l2sets,
					l1.Accesses, l1.Misses, l2.Accesses, l2.Misses, r1.accesses, r1.misses, r2.accesses, r2.misses)
			}
		}
	}
}

// TestDirectoryGrowsPastMemory: the directory is sized from the machine's
// memory, so a next-line prefetch from the last line lands past its end.
// It must grow and record the sharer — a later write from another core
// invalidates the prefetched copy like any other.
func TestDirectoryGrowsPastMemory(t *testing.T) {
	p := testprog.Phased(2, 1, 4, omp.Passive)
	cfg := Gainestown(2)
	cfg.PrefetchNextLines = 3
	m := exec.NewMachine(p, 1)

	blk := p.Entries[0].Blocks[0]
	lastWord := uint64(len(m.Mem) - 1)
	pf := lastWord*8 + 2*64
	var sized int
	f := &scriptFeed{steps: []scriptStep{{
		tid: 0, r: exec.Retired{Instr: &isa.Instr{Op: isa.OpILoad}, Block: blk, MemAddr: lastWord * 8},
		before: func(sys *system) {
			sized = len(sys.dir)
			if lastLine := lastWord * 8 >> 6; uint64(sized) != lastLine+1 {
				t.Fatalf("directory has %d lines for a memory ending in line %d", sized, lastLine)
			}
		},
		after: func(sys *system) {
			if len(sys.dir) != sized+cfg.PrefetchNextLines {
				t.Fatalf("directory has %d lines after prefetching %d past line %d", len(sys.dir), cfg.PrefetchNextLines, sized-1)
			}
			for i := 0; i <= cfg.PrefetchNextLines; i++ {
				if sys.dir[sized-1+i] != 1 {
					t.Errorf("line %d: sharers %#b, want core 0 only", sized-1+i, sys.dir[sized-1+i])
				}
			}
			if !sys.cores[0].l1d.Contains(pf) {
				t.Fatal("prefetched line not in core 0's L1D")
			}
		},
	}, {
		tid: 1, r: exec.Retired{Instr: &isa.Instr{Op: isa.OpIStore}, Block: blk, MemAddr: pf},
		after: func(sys *system) {
			if sys.cores[0].l1d.Contains(pf) || sys.coherenceInv != 1 || sys.dir[pf>>6] != 2 {
				t.Errorf("write to a prefetched line past memory: still in core 0's L1D %v, %d invalidations, sharers %#b",
					sys.cores[0].l1d.Contains(pf), sys.coherenceInv, sys.dir[pf>>6])
			}

			// reset keeps the grown directory's capacity and none of its bits.
			grown := len(sys.dir)
			sys.reset(m)
			if len(sys.dir) != grown {
				t.Errorf("reset changed the directory from %d to %d lines", grown, len(sys.dir))
			}
			for line, sharers := range sys.dir {
				if sharers != 0 {
					t.Fatalf("reset left sharers %#b on line %d", sharers, line)
				}
			}
		},
	}}}
	r := &run{src: f, end: bbv.Marker{IsEnd: true}, bind: func(sys *system) { sys.bind(m); f.sys = sys; sys.follow(f.next, false) }}
	if _, err := freshSim(t, cfg, p).simulate(r); err != nil {
		t.Fatal(err)
	}
	if f.i != len(f.steps) {
		t.Fatalf("the loop charged %d of %d instructions", f.i, len(f.steps))
	}
}

// scriptFeed feeds the timing loop a fixed list of instructions, in its
// order, with a look at the system around each charge.
type scriptFeed struct {
	sys   *system
	steps []scriptStep
	i     int // steps handed out
}

type scriptStep struct {
	tid           int
	r             exec.Retired
	before, after func(*system)
}

// next runs the charged step's after and names the next step's thread.
func (f *scriptFeed) next() (int, bool) {
	if f.i > 0 && f.steps[f.i-1].after != nil {
		f.steps[f.i-1].after(f.sys)
	}
	if f.i == len(f.steps) {
		return 0, false
	}
	return f.steps[f.i].tid, true
}

func (f *scriptFeed) Retire(int) (exec.Retired, []int) {
	f.i++
	if fn := f.steps[f.i-1].before; fn != nil {
		fn(f.sys)
	}
	return f.steps[f.i-1].r, nil
}

// TestResetIdentityWithPrefetcher: a pooled system whose directory grew
// past memory on earlier runs, and holds their sharer sets until reset,
// reports what a fresh one reports.
func TestResetIdentityWithPrefetcher(t *testing.T) {
	p := phasedProg()
	cfg := Gainestown(4)
	cfg.PrefetchNextLines = 2
	pooled, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := pooled.SimulateFull()
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshSim(t, cfg, p).SimulateFull()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: pooled-system stats differ from fresh\npooled: %+v\nfresh:  %+v", i, got, want)
		}
		if want.CoherenceInvalidations == 0 {
			t.Fatal("workload has no coherence traffic: stale sharer bits would go unnoticed")
		}
	}
}

// Contains reports whether the address is resident at this level.
func (c *Cache) Contains(addr uint64) bool {
	return find(c.set(addr)) >= 0
}
