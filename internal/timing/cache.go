package timing

import "math/bits"

// Cache is a set-associative LRU cache. Caches form a linear hierarchy
// via the next pointer; Access walks down on miss and fills on the way
// back, returning the level that hit (1-based; levels+1 = memory).
type Cache struct {
	cfg   CacheConfig
	lines []cacheLine // sets x assoc in one allocation; set i is lines[i*assoc:(i+1)*assoc]
	assoc uint64
	nsets uint64
	next  *Cache

	Accesses uint64
	Misses   uint64
	count    uint64 // what an access adds to the counters: 0 while warming, else 1

	lineShift uint
	// A power-of-two set count (every Table I level) takes the set from a
	// mask; any other count takes it from %. Both give the same set for
	// the same line.
	pow2    bool
	setMask uint64

	// The way the last lookup found or filled: a repeat of its line hits
	// it without the set walk. A line is in at most one way of its set,
	// so while that way's key is still the line's, the walk would find
	// that way; any write to the way changes its key.
	last *cacheLine

	// touched holds every set filled since the last Reset, which clears
	// only those.
	touched [][]cacheLine
}

// cacheLine is one way of a set. key is the line's number plus one, so
// that zero means invalid and a lookup is one compare; lru survives
// invalidation, as the victim choice below reads it.
type cacheLine struct {
	key uint64
	lru uint64
}

// NewCache builds one cache level chained above next (nil = memory).
func NewCache(cfg CacheConfig, next *Cache) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		cfg:   cfg,
		next:  next,
		lines: make([]cacheLine, sets*cfg.Assoc),
		assoc: uint64(cfg.Assoc),
		nsets: uint64(sets),
		count: 1,
	}
	c.last = &c.lines[0]
	if sets&(sets-1) == 0 {
		c.pow2 = true
		c.setMask = uint64(sets - 1)
	}
	c.lineShift = uint(bits.Len(uint(cfg.LineBytes))) - 1
	return c
}

// index returns the set holding line.
func (c *Cache) index(line uint64) uint64 {
	if c.pow2 {
		return line & c.setMask
	}
	return line % c.nsets
}

// set returns the ways of the set holding addr, and addr's key there.
func (c *Cache) set(addr uint64) ([]cacheLine, uint64) {
	line := addr >> c.lineShift
	return c.lines[c.index(line)*c.assoc:][:c.assoc], line + 1
}

// find returns the way of ways holding key, or -1.
func find(ways []cacheLine, key uint64) int {
	for i := range ways {
		if ways[i].key == key {
			return i
		}
	}
	return -1
}

// fill installs key in ways, evicting the first invalid way after way 0
// or else the least recently used, and returns the way it filled. A
// set's first fill after a reset goes to way 1 (way 0 if the cache is
// direct-mapped), whose stamp is zero until then; fill records that set.
func (c *Cache) fill(ways []cacheLine, key, clock uint64) *cacheLine {
	if ways[min(1, len(ways)-1)].lru == 0 {
		c.touched = append(c.touched, ways)
	}
	victim := 0
	for i := 1; i < len(ways); i++ {
		if ways[i].key == 0 {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = cacheLine{key: key, lru: clock}
	return &ways[victim]
}

// Reset invalidates every line and zeroes statistics while reusing the
// backing array — the path a pooled timing system takes back. Only the
// sets filled since the last reset hold anything, so only those are
// cleared. Only this level is reset: hierarchies are walked explicitly
// by callers so a shared L3 is cleared once, not once per core above it.
func (c *Cache) Reset() {
	for _, ways := range c.touched {
		clear(ways)
	}
	c.touched = c.touched[:0]
	c.Accesses, c.Misses, c.count = 0, 0, 1
	c.last = &c.lines[0]
}

// SetWarming toggles warming mode: state updates happen but statistics do
// not accumulate (functional warmup, paper Section III-F).
func (c *Cache) SetWarming(w bool) {
	c.count = 1
	if w {
		c.count = 0
	}
	if c.next != nil {
		c.next.SetWarming(w)
	}
}

// repeat reports whether addr is in the line the last lookup found or
// filled; if it is, it hits that way as the set walk would. The timing
// loop's L1I and L1D sites call it first, then hit, then miss.
func (c *Cache) repeat(addr uint64, clock uint64) bool {
	if c.last.key != addr>>c.lineShift+1 {
		return false
	}
	c.last.lru = clock
	c.Accesses += c.count
	return true
}

// hit reports whether addr is at this level and, if it is, hits it:
// stamps and remembers its way and counts the access. It is Access's
// first half, small enough to inline at the loop's L1 sites; only miss,
// the other half, calls out.
func (c *Cache) hit(addr uint64, clock uint64) bool {
	line := addr >> c.lineShift // set, written out to stay inside the inlining budget
	ways := c.lines[c.index(line)*c.assoc:][:c.assoc]
	for i := range ways {
		if ways[i].key == line+1 {
			ways[i].lru, c.last = clock, &ways[i]
			c.Accesses += c.count
			return true
		}
	}
	return false
}

// miss is Access for an address hit did not find: it counts the access
// and the miss, looks the line up below, and fills it here.
func (c *Cache) miss(addr uint64, clock uint64) int {
	ways, key := c.set(addr)
	c.Accesses += c.count
	c.Misses += c.count
	below := 1
	if c.next != nil {
		below = c.next.Access(addr, clock)
	}
	c.last = c.fill(ways, key, clock)
	return below + 1
}

// Access looks up the byte address, filling lines on a miss. It returns
// the 1-based level at which the access hit; if no level hits, it returns
// number-of-levels + 1 (memory). clock provides LRU ordering.
func (c *Cache) Access(addr uint64, clock uint64) int {
	if c.hit(addr, clock) {
		return 1
	}
	return c.miss(addr, clock)
}

// FillQuiet inserts the line holding addr at this level and below without
// touching demand-access statistics (hardware prefetch fills).
func (c *Cache) FillQuiet(addr uint64, clock uint64) {
	ways, key := c.set(addr)
	if i := find(ways, key); i >= 0 {
		ways[i].lru = clock
	} else {
		c.fill(ways, key, clock)
	}
	if c.next != nil {
		c.next.FillQuiet(addr, clock)
	}
}

// Invalidate drops the line holding addr from this level only (coherence).
func (c *Cache) Invalidate(addr uint64) {
	ways, key := c.set(addr)
	if i := find(ways, key); i >= 0 {
		ways[i].key = 0
	}
}
