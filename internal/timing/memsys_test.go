package timing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// refCache is Cache as it was first written — set and tag from % and /,
// a valid flag beside the tag — kept as the reference the mask-indexed,
// key-packed Cache is compared against.
type refCache struct {
	sets      [][]refLine
	next      *refCache
	lineShift uint

	accesses, misses uint64
	warming          bool
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
	if !c.warming {
		c.accesses++
	}
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = clock
			return 1
		}
	}
	if !c.warming {
		c.misses++
	}
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

func (c *refCache) reset() {
	for _, ways := range c.sets {
		clear(ways)
	}
	c.accesses, c.misses, c.warming = 0, 0, false
}

func (c *refCache) setWarming(w bool) {
	for ; c != nil; c = c.next {
		c.warming = w
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

// TestCacheRepeatLinesMatchReference: on streams where most accesses
// repeat the line the cache looked up last, each looked up as the timing
// loop's L1 sites do (the repeat check, then hit, then miss) or as Access
// does, interleaved with quiet fills,
// invalidations at either level, warming toggles and resets of either
// level, a two-level hierarchy returns the hit levels and counts of the
// %,/ reference and holds exactly its lines — for direct-mapped,
// two-way and four-way first levels on power-of-two and other set counts.
func TestCacheRepeatLinesMatchReference(t *testing.T) {
	for _, l1cfg := range []CacheConfig{
		{Name: "direct", SizeBytes: 256, Assoc: 1, LineBytes: 64, Latency: 1}, // 4 sets
		{Name: "pow2", SizeBytes: 512, Assoc: 2, LineBytes: 64, Latency: 1},   // 4 sets
		{Name: "three", SizeBytes: 384, Assoc: 2, LineBytes: 64, Latency: 1},  // 3 sets
		{Name: "five", SizeBytes: 1280, Assoc: 4, LineBytes: 64, Latency: 1},  // 5 sets
	} {
		for _, l2sets := range []int{8, 6} {
			name := fmt.Sprintf("%s/%d", l1cfg.Name, l2sets)
			l2cfg := CacheConfig{Name: "L2", SizeBytes: l2sets * 2 * 64, Assoc: 2, LineBytes: 64, Latency: 8}
			l2 := NewCache(l2cfg, nil)
			l1 := NewCache(l1cfg, l2)
			r2 := newRefCache(l2cfg, nil)
			r1 := newRefCache(l1cfg, r2)
			sameCounts := func(clock uint64, when string) {
				if l1.Accesses != r1.accesses || l1.Misses != r1.misses || l2.Accesses != r2.accesses || l2.Misses != r2.misses {
					t.Fatalf("%s clock %d %s: counters L1 %d/%d L2 %d/%d, reference L1 %d/%d L2 %d/%d", name, clock, when,
						l1.Accesses, l1.Misses, l2.Accesses, l2.Misses, r1.accesses, r1.misses, r2.accesses, r2.misses)
				}
			}

			const universe = 32 * 64 // 32 lines: every set overflows
			rng := rand.New(rand.NewSource(int64(l1cfg.SizeBytes*10 + l2sets)))
			var addr uint64
			for clock := uint64(1); clock <= 30000; clock++ {
				if rng.Intn(3) == 0 {
					addr = uint64(rng.Intn(universe))
				} else {
					addr = addr&^63 | uint64(rng.Intn(64)) // the same line again
				}
				switch op := rng.Intn(40); {
				case op < 30:
					got := 1
					if op < 5 {
						got = l1.Access(addr, clock)
					} else if !l1.repeat(addr, clock) && !l1.hit(addr, clock) { // as the loop's L1 sites look up
						got = l1.miss(addr, clock)
					}
					if want := r1.access(addr, clock); got != want {
						t.Fatalf("%s clock %d: access %#x hit level %d, reference %d", name, clock, addr, got, want)
					}
				case op < 33:
					l1.FillQuiet(addr, clock)
					r1.fillQuiet(addr, clock)
				case op < 35:
					l1.Invalidate(addr)
					r1.invalidate(addr)
				case op < 37:
					l2.Invalidate(addr)
					r2.invalidate(addr)
				case op < 39:
					w := rng.Intn(2) == 0
					l1.SetWarming(w)
					r1.setWarming(w)
				default:
					sameCounts(clock, "before a reset")
					l1.Reset()
					r1.reset()
					if rng.Intn(2) == 0 {
						l2.Reset()
						r2.reset()
					}
				}
				if clock%50 == 0 {
					sameCounts(clock, "")
					for a := uint64(0); a < universe; a += 64 {
						if l1.Contains(a) != r1.contains(a) || l2.Contains(a) != r2.contains(a) {
							t.Fatalf("%s clock %d: residency of %#x differs from the reference", name, clock, a)
						}
					}
				}
			}
			sameCounts(30000, "at the end")
		}
	}
}

// TestDirectoryGrowsPastMemory: the directory is sized from the machine's
// memory, so a next-line prefetch from the last line lands past its end.
// It must grow and record the sharer. A program of two threads runs in
// order: thread 0 loads from the last line, which prefetches three lines
// past memory, and from four lines before the last, which prefetches the
// next three; thread 1 then writes the first of those, which invalidates
// core 0's prefetched copy like any other.
func TestDirectoryGrowsPastMemory(t *testing.T) {
	p := isa.NewProgram("edge", 2)
	cells := p.Alloc("cells", 64) // the last eight lines of memory
	words := cells + 64
	main := p.AddImage("main", false)
	b := main.NewRoutine("load").NewBlock("entry")
	b.ILoad(2, 1, int64(words-1)) // r1 is zero
	b.ILoad(2, 1, int64(words-32))
	b.Halt()
	p.SetEntry(0, b.Routine)
	b = main.NewRoutine("store").NewBlock("entry")
	b.IMovI(2, 7)
	b.IStore(1, int64(words-24), 2)
	b.Halt()
	p.SetEntry(1, b.Routine)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	cfg := Gainestown(2)
	cfg.PrefetchNextLines = 3
	m := exec.NewMachine(p, 1)
	if uint64(len(m.Mem)) != words {
		t.Fatalf("memory of %d words, want %d", len(m.Mem), words)
	}
	lastLine := (words - 1) * 8 >> 6
	pf := (words-1)*8 + 2*64    // a prefetched line past memory
	written := (words - 24) * 8 // prefetched by core 0

	var sys *system
	var sized int
	order := scheduleOrder(exec.Schedule{{Tid: 0, N: 3}, {Tid: 1, N: 3}})
	steps := 0
	checked := func() (int, bool) {
		tid, ok := order()
		if steps++; steps == 4 { // thread 0 has run
			if len(sys.dir) != sized+cfg.PrefetchNextLines {
				t.Fatalf("directory has %d lines after prefetching %d past line %d", len(sys.dir), cfg.PrefetchNextLines, sized-1)
			}
			for i := 0; i <= cfg.PrefetchNextLines; i++ {
				if sys.dir[sized-1+i] != 1 {
					t.Errorf("line %d: sharers %#b, want core 0 only", sized-1+i, sys.dir[sized-1+i])
				}
			}
			if !sys.cores[0].l1d.Contains(pf) {
				t.Fatal("prefetched line past memory not in core 0's L1D")
			}
		}
		if ok {
			return tid, ok
		}
		if sys.cores[0].l1d.Contains(written) || sys.coherenceInv != 1 || sys.dir[written>>6] != 2 {
			t.Errorf("write to a prefetched line: still in core 0's L1D %v, %d invalidations, sharers %#b",
				sys.cores[0].l1d.Contains(written), sys.coherenceInv, sys.dir[written>>6])
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
		return 0, false
	}
	r := &run{src: m, end: bbv.Marker{IsEnd: true}, bind: func(s *system) {
		sys, sized = s, len(s.dir)
		if uint64(sized) != lastLine+1 {
			t.Fatalf("directory has %d lines for a memory ending in line %d", sized, lastLine)
		}
		s.follow(checked, false)
	}}
	if _, err := freshSim(t, cfg, p).simulate(r); err != nil {
		t.Fatal(err)
	}
	if steps != 7 {
		t.Fatalf("the order was asked %d times, want 7", steps)
	}
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
