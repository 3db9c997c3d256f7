package timing

import "math/bits"

// Cache is a set-associative LRU cache. Caches form a linear hierarchy
// via the next pointer; Access walks down on miss and fills on the way
// back, returning the level that hit (1-based; levels+1 = memory).
type Cache struct {
	cfg   CacheConfig
	lines []cacheLine // sets x assoc in one allocation; set i is lines[i*assoc:(i+1)*assoc]
	assoc int
	nsets uint64
	next  *Cache

	Accesses uint64
	Misses   uint64

	lineShift uint
	// A power-of-two set count (every Table I level) takes set and tag
	// from a mask and a shift; any other count takes them from % and /.
	// Both give the same (set, tag) for the same line.
	pow2     bool
	setMask  uint64
	setShift uint
	warming  bool
}

// cacheLine is one way of a set. key is the line's tag plus one, so that
// zero means invalid and a lookup is one compare; lru survives
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
		assoc: cfg.Assoc,
		nsets: uint64(sets),
	}
	if sets&(sets-1) == 0 {
		c.pow2 = true
		c.setMask = uint64(sets - 1)
		c.setShift = uint(bits.TrailingZeros64(uint64(sets)))
	}
	for ls, v := uint(0), cfg.LineBytes; v > 1; v >>= 1 {
		ls++
		c.lineShift = ls
	}
	return c
}

// set returns the ways of the set holding addr, and addr's key there.
func (c *Cache) set(addr uint64) ([]cacheLine, uint64) {
	line := addr >> c.lineShift
	var set, tag uint64
	if c.pow2 {
		set, tag = line&c.setMask, line>>c.setShift
	} else {
		set, tag = line%c.nsets, line/c.nsets
	}
	return c.lines[int(set)*c.assoc:][:c.assoc], tag + 1
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
// or else the least recently used.
func fill(ways []cacheLine, key, clock uint64) {
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
}

// Reset invalidates every line and zeroes statistics while reusing the
// backing array — the path a pooled timing system takes back. Only
// this level is reset: hierarchies are walked explicitly by callers so
// a shared L3 is cleared once, not once per core above it.
func (c *Cache) Reset() {
	clear(c.lines)
	c.Accesses, c.Misses = 0, 0
	c.warming = false
}

// SetWarming toggles warming mode: state updates happen but statistics do
// not accumulate (functional warmup, paper Section III-F).
func (c *Cache) SetWarming(w bool) {
	c.warming = w
	if c.next != nil {
		c.next.SetWarming(w)
	}
}

// Access looks up the byte address, filling lines on a miss. It returns
// the 1-based level at which the access hit; if no level hits, it returns
// number-of-levels + 1 (memory). clock provides LRU ordering.
func (c *Cache) Access(addr uint64, clock uint64) int {
	ways, key := c.set(addr)
	if !c.warming {
		c.Accesses++
	}
	if i := find(ways, key); i >= 0 {
		ways[i].lru = clock
		return 1
	}
	if !c.warming {
		c.Misses++
	}
	below := 1
	if c.next != nil {
		below = c.next.Access(addr, clock)
	}
	fill(ways, key, clock)
	return below + 1
}

// FillQuiet inserts the line holding addr at this level and below without
// touching demand-access statistics (hardware prefetch fills).
func (c *Cache) FillQuiet(addr uint64, clock uint64) {
	ways, key := c.set(addr)
	if i := find(ways, key); i >= 0 {
		ways[i].lru = clock
	} else {
		fill(ways, key, clock)
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
