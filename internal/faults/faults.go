// Package faults is a deterministic, seed-driven fault injector for the
// disk and network edges of the pipeline. Production code calls
// Check/CorruptBytes at named injection sites; with no plan enabled those
// calls are a single atomic load, so the hot path pays nothing. Tests
// (and the FAULTS_SEED CI sweep) arm a Plan that decides — purely from
// the seed, the site name, and the per-site invocation index — which
// invocations fail and how: a transient error, a deterministic bit flip
// in an artifact byte stream, or a panic. Because the decision is a pure
// function of (seed, site, index), every recovery path in the repository
// is exercised by ordinary `go test` with zero wall-clock flakiness, and
// a failing sweep seed reproduces exactly.
//
// Site naming convention: `<package>.<operation>`, lower-case, dots as
// separators — e.g. "pinball.load", "core.progress.save",
// "campaign.claim". DESIGN.md §9 lists the armed sites.
package faults

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"looppoint/internal/artifact"
)

// Kind classifies an injected fault.
type Kind uint8

// Fault kinds.
const (
	// Transient makes Check return an injected error — the "machine
	// hiccuped" class a retry can absorb.
	Transient Kind = iota
	// Corrupt makes CorruptBytes flip one deterministic bit in the
	// artifact byte stream passing through the site.
	Corrupt
	// Panic makes Check panic with a *Fault — the in-process stand-in
	// for a process killed at the site.
	Panic
)

func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Corrupt:
		return "corrupt"
	case Panic:
		return "panic"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind parses a kind name as used in FAULTS_PLAN specs.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "transient", "error":
		return Transient, nil
	case "corrupt":
		return Corrupt, nil
	case "panic":
		return Panic, nil
	}
	return 0, fmt.Errorf("faults: unknown kind %q", s)
}

// ErrInjected is the sentinel wrapped by every injected fault error, so
// callers (and tests) can tell injected failures from organic ones.
var ErrInjected = errors.New("injected fault")

// Fault is one fired injection. It is the error returned for Transient
// faults and the panic value for Panic faults.
type Fault struct {
	Site  string
	Index uint64 // per-site invocation index that fired
	Kind  Kind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faults: injected %s fault at %s[%d]", f.Kind, f.Site, f.Index)
}

// Unwrap lets errors.Is(err, faults.ErrInjected) match.
func (f *Fault) Unwrap() error { return ErrInjected }

// Rule arms one injection site. Which invocations fire is decided by a
// hash of (plan seed, site, invocation index): with Rate r, roughly one
// in r invocations at or past After fires, until Count fires have
// happened. Rate 1 fires every eligible invocation regardless of seed —
// the deterministic setting tests use when they need an exact script.
// Invocation indices are counted per class: Check calls and
// CorruptBytes calls on the same site each have their own counter, so
// After/Rate always index logical operations of the rule's own kind.
type Rule struct {
	Site string
	Kind Kind
	// Rate selects ~1/Rate of invocations (hash-keyed); 0 disables the
	// rule, 1 fires every eligible invocation.
	Rate uint64
	// Count caps how many times the rule fires (0 = unlimited).
	Count uint64
	// After skips the first After invocations of the site — "let some
	// work finish, then kill it" scripting for resume tests.
	After uint64
}

// armedRule pairs a rule with its fire counter.
type armedRule struct {
	Rule
	fired atomic.Uint64
}

// Invocation classes: Check and CorruptBytes keep separate per-site
// counters, so a site armed at both call sites (e.g. pinball.save calls
// Check then CorruptBytes per Save) counts logical operations in each
// class — Rule.After/Rate indices mean "Nth Check" or "Nth CorruptBytes",
// never a merged stream where one Save consumes two indices.
const (
	classCheck = iota
	classCorrupt
	numClasses
)

// site tracks one injection point's per-class invocation counters and
// armed rules.
type site struct {
	calls [numClasses]atomic.Uint64
	rules []*armedRule
}

// Plan is an immutable set of armed rules plus the seed that drives
// every firing decision. Safe for concurrent use.
type Plan struct {
	Seed  uint64
	sites map[string]*site
}

// NewPlan builds a plan from rules. Rules for the same site all get
// consulted on every invocation, first match fires.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	p := &Plan{Seed: seed, sites: make(map[string]*site)}
	for _, r := range rules {
		s := p.sites[r.Site]
		if s == nil {
			s = &site{}
			p.sites[r.Site] = s
		}
		s.rules = append(s.rules, &armedRule{Rule: r})
	}
	return p
}

// hit reports whether a rule fires at invocation idx — a pure function
// of (seed, site, idx), so runs are reproducible per seed.
func (p *Plan) hit(r *armedRule, idx uint64) bool {
	if r.Rate == 0 || idx < r.After {
		return false
	}
	if r.Count > 0 && r.fired.Load() >= r.Count {
		return false
	}
	if r.Rate > 1 {
		h := artifact.FNVOffset
		mix := func(v uint64) {
			for i := 0; i < 8; i++ {
				h ^= (v >> (8 * i)) & 0xff
				h *= artifact.FNVPrime
			}
		}
		mix(p.Seed)
		for _, c := range []byte(r.Site) {
			h ^= uint64(c)
			h *= artifact.FNVPrime
		}
		mix(idx)
		if h%r.Rate != 0 {
			return false
		}
	}
	// Count re-check under increment: allow a small over-fire race only
	// between concurrent invocations of the same site, never beyond +P-1
	// for P simultaneous callers; tests that need an exact count run the
	// site sequentially.
	if r.Count > 0 && r.fired.Add(1) > r.Count {
		return false
	}
	if r.Count == 0 {
		r.fired.Add(1)
	}
	return true
}

// fire looks up the first rule of the given class — Corrupt rules for
// classCorrupt, the others for classCheck — that fires at this site's
// next invocation index of that class.
func (p *Plan) fire(siteName string, class int) *Fault {
	s := p.sites[siteName]
	if s == nil {
		return nil
	}
	idx := s.calls[class].Add(1) - 1
	for _, r := range s.rules {
		if (r.Kind == Corrupt) == (class == classCorrupt) && p.hit(r, idx) {
			return &Fault{Site: siteName, Index: idx, Kind: r.Kind}
		}
	}
	return nil
}

// Check is the general injection point: it counts one Check-class
// invocation of the site and, if a Transient or Panic rule fires,
// returns an injected error or panics respectively. Corrupt rules never
// fire here — they belong to CorruptBytes, whose invocations are counted
// separately.
func (p *Plan) Check(siteName string) error {
	f := p.fire(siteName, classCheck)
	if f == nil {
		return nil
	}
	if f.Kind == Panic {
		panic(f)
	}
	return f
}

// CorruptBytes counts one Corrupt-class invocation of the site
// (independent of the site's Check counter) and, if a Corrupt rule
// fires, flips one deterministically chosen bit of data in place and
// reports true. Empty data is never touched.
func (p *Plan) CorruptBytes(siteName string, data []byte) bool {
	if len(data) == 0 {
		return false
	}
	f := p.fire(siteName, classCorrupt)
	if f == nil {
		return false
	}
	h := artifact.Checksum([]byte(fmt.Sprintf("%d/%s/%d", p.Seed, siteName, f.Index)))
	data[h%uint64(len(data))] ^= 1 << ((h >> 32) % 8)
	return true
}

// Fired returns how many times any rule at the site has fired — test
// observability.
func (p *Plan) Fired(siteName string) uint64 {
	s := p.sites[siteName]
	if s == nil {
		return 0
	}
	var n uint64
	for _, r := range s.rules {
		n += r.fired.Load()
	}
	return n
}

// active is the process-wide plan; nil means injection is disabled and
// every Check/CorruptBytes is a single atomic load.
var active atomic.Pointer[Plan]

// Enable installs a plan globally and returns a restore function that
// reinstates the previous plan — `defer faults.Enable(plan)()` in tests.
func Enable(p *Plan) (restore func()) {
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// Check consults the active plan, if any. The nil fast path is one
// atomic load.
func Check(site string) error {
	if p := active.Load(); p != nil {
		return p.Check(site)
	}
	return nil
}

// CorruptBytes consults the active plan, if any.
func CorruptBytes(site string, data []byte) bool {
	if p := active.Load(); p != nil {
		return p.CorruptBytes(site, data)
	}
	return false
}

// SeedFromEnv returns FAULTS_SEED when set (the CI sweep knob), else def.
func SeedFromEnv(def uint64) uint64 {
	if v := os.Getenv("FAULTS_SEED"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// FromEnv builds a plan from the environment, for injecting faults into
// the commands without recompiling:
//
//	FAULTS_PLAN="site:kind:rate[:count[:after]][;site:kind:rate...]"
//	FAULTS_SEED=7   # optional, default 1
//
// e.g. FAULTS_PLAN="pinball.load:transient:1:1" fails the first pinball
// load once. An entry with an empty site or more than five fields is
// rejected, never read in part. Returns (nil, nil) when FAULTS_PLAN is
// unset.
func FromEnv() (*Plan, error) {
	spec := os.Getenv("FAULTS_PLAN")
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 3 || len(parts) > 5 || parts[0] == "" {
			return nil, fmt.Errorf("faults: bad FAULTS_PLAN entry %q (want site:kind:rate[:count[:after]])", entry)
		}
		kind, err := ParseKind(parts[1])
		if err != nil {
			return nil, err
		}
		r := Rule{Site: parts[0], Kind: kind}
		if r.Rate, err = strconv.ParseUint(parts[2], 10, 64); err != nil {
			return nil, fmt.Errorf("faults: bad rate in %q: %v", entry, err)
		}
		if len(parts) > 3 {
			if r.Count, err = strconv.ParseUint(parts[3], 10, 64); err != nil {
				return nil, fmt.Errorf("faults: bad count in %q: %v", entry, err)
			}
		}
		if len(parts) > 4 {
			if r.After, err = strconv.ParseUint(parts[4], 10, 64); err != nil {
				return nil, fmt.Errorf("faults: bad after in %q: %v", entry, err)
			}
		}
		rules = append(rules, r)
	}
	return NewPlan(SeedFromEnv(1), rules...), nil
}
