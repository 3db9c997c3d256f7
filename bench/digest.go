package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"looppoint/internal/bbv"
	"looppoint/internal/core"
	"looppoint/internal/timing"
)

// A digest is the identity of everything a job computed: a change that
// only makes the simulator faster must leave every digest as it was.
// Floats are written in hex so two values that print alike in decimal
// but differ in the last bit still give different digests.

type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) u(tag string, v uint64) { fmt.Fprintf(d.h, "%s=%d;", tag, v) }
func (d *digester) f(tag string, v float64) {
	fmt.Fprintf(d.h, "%s=%s;", tag, strconv.FormatFloat(v, 'x', -1, 64))
}
func (d *digester) marker(tag string, m bbv.Marker) {
	fmt.Fprintf(d.h, "%s=(%#x,%d,%t);", tag, m.PC, m.Count, m.IsEnd)
}
func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// selection adds the markers, every region's (PC,count) bounds, and the
// chosen points with their multipliers.
func (d *digester) selection(sel *core.Selection) {
	a := sel.Analysis
	for _, m := range a.Markers {
		d.u("marker", m)
	}
	for _, r := range a.Profile.Regions {
		d.marker("start", r.Start)
		d.marker("end", r.End)
		d.u("filtered", r.Filtered)
	}
	d.points(sel)
}

// points adds only the chosen points (for jobs that re-select over an
// analysis made once in set-up).
func (d *digester) points(sel *core.Selection) {
	for _, lp := range sel.Points {
		d.u("point", uint64(lp.Region.Index))
		d.u("cluster", uint64(lp.Cluster))
		d.f("mult", lp.Multiplier)
	}
}

func (d *digester) prediction(p core.Prediction) {
	d.f("cycles", p.Cycles)
	d.f("seconds", p.Seconds)
	d.f("instr", p.Instructions)
	d.f("brmiss", p.BranchMisses)
	d.f("l1d", p.L1DMisses)
	d.f("l2", p.L2Misses)
	d.f("l3", p.L3Misses)
}

func (d *digester) stats(tag string, s *timing.Stats) {
	d.f(tag+".cycles", s.Cycles)
	d.u(tag+".instr", s.Instructions)
	d.u(tag+".branches", s.Branches)
	d.u(tag+".brmiss", s.BranchMisses)
	d.u(tag+".l1d", s.L1DMisses)
	d.u(tag+".l2", s.L2Misses)
	d.u(tag+".l3", s.L3Misses)
}

func selectionDigest(sel *core.Selection) string {
	d := newDigester()
	d.selection(sel)
	return d.sum()
}

// evalDigest covers a whole evaluation: selection, every region's
// simulated statistics, the extrapolation and the full run.
func evalDigest(sel *core.Selection, regions []core.RegionResult, pred core.Prediction, full *timing.Stats) string {
	d := newDigester()
	d.selection(sel)
	for i, r := range regions {
		d.stats("r"+strconv.Itoa(i), r.Stats)
	}
	d.prediction(pred)
	if full != nil {
		d.stats("full", full)
	}
	return d.sum()
}

// reuseDigest covers a checkpoint-reuse job: the re-selection and the
// prediction made from stored region checkpoints.
func reuseDigest(sel *core.Selection, regions []core.RegionResult, pred core.Prediction) string {
	d := newDigester()
	d.points(sel)
	for i, r := range regions {
		d.stats("r"+strconv.Itoa(i), r.Stats)
	}
	d.prediction(pred)
	return d.sum()
}

// fleetDigest covers what a serve.JobResult carries of an evaluation, so
// the library and the fleet can be compared on the same spec.
func fleetDigest(regions, points int, predSeconds, predCycles, runtimeErrPct float64) string {
	d := newDigester()
	d.u("regions", uint64(regions))
	d.u("points", uint64(points))
	d.f("seconds", predSeconds)
	d.f("cycles", predCycles)
	d.f("err", runtimeErrPct)
	return d.sum()
}

func reportFleetDigest(rep *core.Report) string {
	return fleetDigest(len(rep.Selection.Analysis.Profile.Regions), len(rep.Selection.Points),
		rep.Predicted.Seconds, rep.Predicted.Cycles, rep.RuntimeErrPct)
}

//go:embed golden.json
var goldenJSON []byte

// checker decides whether a job's digest is right: equal to the golden
// file at seed 1, and at every seed equal to the first digest the same
// job gave in this process.
type checker struct {
	mu     sync.Mutex
	golden map[string]string // nil: not seed 1, or quick sizes
	first  map[string]string
}

func newChecker(seed int64, quick, update bool) (*checker, error) {
	c := &checker{first: map[string]string{}}
	if seed == 1 && !quick && !update {
		if err := json.Unmarshal(goldenJSON, &c.golden); err != nil {
			return nil, fmt.Errorf("golden.json: %w", err)
		}
	}
	return c, nil
}

// check returns "" when the digest is right and the reason otherwise.
func (c *checker) check(key, digest string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.first[key]; ok {
		if prev != digest {
			return fmt.Sprintf("%s: digest %s differs from this process's first run %s", key, digest, prev)
		}
		return ""
	}
	c.first[key] = digest
	if c.golden != nil {
		want, ok := c.golden[key]
		if !ok {
			return fmt.Sprintf("%s: no golden digest (run -update-golden in a benchmark PR)", key)
		}
		if want != digest {
			return fmt.Sprintf("%s: digest %s differs from golden %s", key, digest, want)
		}
	}
	return ""
}

// writeGolden merges this process's first digests into golden.json.
func (c *checker) writeGolden() error {
	path := filepath.Join(benchDir(), "golden.json")
	all := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &all) // a damaged file is rewritten whole
	}
	c.mu.Lock()
	for k, v := range c.first {
		all[k] = v
	}
	c.mu.Unlock()
	buf, err := json.MarshalIndent(all, "", "  ") // keys come out sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
