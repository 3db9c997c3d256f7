package campaign

import (
	"fmt"
	"strings"
)

// Report is one campaign's outcome: results in spec order plus the
// run's operational stats. Render is deliberately a function of the
// canonical results alone — never of which worker ran what, how many
// steals fired, or what got restored — so a chaos-ridden fleet run, a
// single-node run, and a resumed run of the same campaign render
// byte-identical reports. Stats carry the operational story separately.
type Report struct {
	Tag     string
	Results []*Result // deduped spec order; nil Res marks a failed job
	Stats   Stats
}

// Stats is the operational summary of one campaign run.
type Stats struct {
	Jobs           int
	Completed      int
	Failed         int
	Dispatched     uint64
	Steals         uint64
	DupDeliveries  uint64
	DupMismatches  uint64
	CorruptReplies uint64
	CacheHits      uint64
	CacheStores    uint64
	CacheCorrupt   uint64
	Restored       uint64
	BreakerTrips   map[string]uint64
}

// Line renders the stats as one grep-friendly line (the smoke scripts
// key on dispatched= and cache_hits=).
func (s Stats) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign stats: jobs=%d completed=%d failed=%d dispatched=%d steals=%d dups=%d dup_mismatches=%d corrupt_replies=%d cache_hits=%d cache_stores=%d cache_corrupt=%d restored=%d",
		s.Jobs, s.Completed, s.Failed, s.Dispatched, s.Steals, s.DupDeliveries,
		s.DupMismatches, s.CorruptReplies, s.CacheHits, s.CacheStores, s.CacheCorrupt, s.Restored)
	return b.String()
}

// Render produces the deterministic campaign report: one header, one
// line per job in spec order, derived only from canonical result fields.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %s: %d jobs\n", r.Tag, len(r.Results))
	for _, res := range r.Results {
		if res.Res == nil {
			fmt.Fprintf(&b, "%s %s %s FAILED\n", res.Key, res.Job.Class, res.Job.App)
			continue
		}
		jr := res.Res
		fmt.Fprintf(&b, "%s %s %s input=%s threads=%d policy=%s core=%s full=%t regions=%d points=%d",
			res.Key, res.Job.Class, res.Job.App, res.Job.Input, res.Job.Threads,
			res.Job.Policy, res.Job.Core, res.Job.Full, jr.Regions, jr.Points)
		if jr.PredictedSeconds != 0 {
			fmt.Fprintf(&b, " predicted_s=%g", jr.PredictedSeconds)
		}
		if jr.PredictedCycles != 0 {
			fmt.Fprintf(&b, " predicted_cycles=%g", jr.PredictedCycles)
		}
		if jr.RuntimeErrPct != 0 {
			fmt.Fprintf(&b, " runtime_err_pct=%g", jr.RuntimeErrPct)
		}
		if jr.Summary != "" {
			fmt.Fprintf(&b, " summary=%q", jr.Summary)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// report assembles the Report after Run settles.
func (c *Coordinator) report() *Report {
	rep := &Report{Tag: c.cfg.Tag}
	c.mu.Lock()
	for _, key := range c.order {
		t := c.tasks[key]
		r := t.result
		if r == nil {
			r = &Result{Key: t.key, Job: t.job}
		}
		rep.Results = append(rep.Results, r)
		if t.failed || t.result == nil {
			rep.Stats.Failed++
		} else {
			rep.Stats.Completed++
		}
	}
	rep.Stats.Jobs = len(c.order)
	c.mu.Unlock()

	rep.Stats.Dispatched = c.dispatched.Load()
	rep.Stats.Steals = c.steals.Load()
	rep.Stats.DupDeliveries = c.dupDeliveries.Load()
	rep.Stats.DupMismatches = c.dupMismatches.Load()
	rep.Stats.CorruptReplies = c.corruptReply.Load()
	hits, _, stores, corrupt := c.cache.Counters()
	rep.Stats.CacheHits = hits
	rep.Stats.CacheStores = stores
	rep.Stats.CacheCorrupt = corrupt
	rep.Stats.Restored = c.restored.Load()
	rep.Stats.BreakerTrips = make(map[string]uint64)
	for _, w := range c.reg.Workers() {
		rep.Stats.BreakerTrips[w.Name()] = w.breaker.Trips()
	}
	return rep
}
