package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

func stratifiedConfig() Config {
	cfg := testConfig()
	cfg.Selector = "stratified"
	cfg.SampleBudget = 16
	return cfg
}

// TestStratifiedRunProducesIntervals runs the full pipeline under the
// stratified engine and requires the report to carry a confidence-
// interval block: default 95% level, Seconds consistent with Cycles
// under the clock rescale, and the interval surfaced in Summary().
func TestStratifiedRunProducesIntervals(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	rep, err := Run(context.Background(), p, stratifiedConfig(), timing.Gainestown(4), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	iv := rep.Intervals
	if iv == nil {
		t.Fatal("stratified run produced no Intervals")
	}
	if iv.Level != 0.95 {
		t.Errorf("Level = %v, want the 0.95 default", iv.Level)
	}
	if iv.Cycles.HalfWidth < 0 || iv.Seconds.HalfWidth < 0 {
		t.Errorf("negative half-widths: %+v", iv)
	}
	hz := timing.Gainestown(4).FreqGHz * 1e9
	if got, want := iv.Seconds.Mean, iv.Cycles.Mean/hz; got != want {
		t.Errorf("Seconds.Mean = %v, want Cycles.Mean/hz = %v", got, want)
	}
	if got, want := iv.Seconds.HalfWidth, iv.Cycles.HalfWidth/hz; got != want {
		t.Errorf("Seconds.HalfWidth = %v, want Cycles.HalfWidth/hz = %v", got, want)
	}
	if s := rep.Summary(); !strings.Contains(s, "% CI") {
		t.Errorf("Summary does not surface the interval: %q", s)
	}
	// The interval's point estimate is the extrapolated prediction: the
	// multipliers encode W_h/(n_h·w_i), so Σ value×multiplier and the
	// stratified estimator agree up to float association.
	if rel := (iv.Cycles.Mean - rep.Predicted.Cycles) / rep.Predicted.Cycles; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("interval mean %v disagrees with extrapolated prediction %v (rel %v)",
			iv.Cycles.Mean, rep.Predicted.Cycles, rel)
	}
}

// TestSimPointRunIntervalsNil pins the point-estimate contract: the
// classic medoid engine draws once per stratum, so no variance is
// estimable and the report must carry a nil Intervals (never a zero-
// width fiction).
func TestSimPointRunIntervalsNil(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	rep, err := Run(context.Background(), p, testConfig(), timing.Gainestown(4), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intervals != nil {
		t.Fatalf("medoid selection produced Intervals %+v, want nil", rep.Intervals)
	}
	if s := rep.Summary(); strings.Contains(s, "% CI") {
		t.Errorf("Summary claims an interval for a point estimate: %q", s)
	}
}

// TestIntervalsWidthInvariant requires identical interval blocks at
// every region-simulation pool width — scheduling must not leak into
// the stratum grouping or the float accumulation order.
func TestIntervalsWidthInvariant(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	a, err := Analyze(p, stratifiedConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	freq := timing.Gainestown(1).FreqGHz
	base, err := simulateAll(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ComputeIntervals(sel, base, freq, 0.95)
	if want == nil {
		t.Fatal("no intervals at width 1")
	}
	for _, width := range []int{2, 8} {
		res, err := simulateAll(sel, timing.Gainestown(4), width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if got := ComputeIntervals(sel, res, freq, 0.95); !reflect.DeepEqual(got, want) {
			t.Errorf("width %d: intervals differ from width 1:\n%+v\nvs\n%+v", width, got, want)
		}
	}
}

// TestSelectorDefaultIsSimPoint pins Config.Selector's zero value to the
// classic engine: an empty selector must produce the same selection as
// naming "simpoint" explicitly.
func TestSelectorDefaultIsSimPoint(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	run := func(selector string) *Selection {
		cfg := testConfig()
		cfg.Selector = selector
		a, err := Analyze(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(a)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	def, named := run(""), run("simpoint")
	if !reflect.DeepEqual(def.Points, named.Points) {
		t.Error("empty Config.Selector selects differently from \"simpoint\"")
	}
	if def.Engine() != "simpoint" {
		t.Errorf("Engine() = %q", def.Engine())
	}
}

// TestSelectionFileEngineMetadata pins the selection-file compatibility
// contract: simpoint selections serialize without the new engine/draws
// keys (byte-compatible with pre-engine files), while stratified
// selections carry both, and every file round-trips through the
// integrity envelope.
func TestSelectionFileEngineMetadata(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	analyzeSelect := func(cfg Config) *Selection {
		a, err := Analyze(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(a)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}

	simFile, err := json.Marshal(analyzeSelect(testConfig()).File())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"engine"`, `"draws"`} {
		if bytes.Contains(simFile, []byte(key)) {
			t.Errorf("simpoint selection file contains %s — pre-engine byte-compatibility broken:\n%s", key, simFile)
		}
	}

	stratSel := analyzeSelect(stratifiedConfig())
	stratFile := stratSel.File()
	if stratFile.Engine != "stratified" {
		t.Errorf("stratified selection file engine = %q", stratFile.Engine)
	}
	multiDraw := false
	for _, pt := range stratFile.Points {
		if pt.Draws > 1 {
			multiDraw = true
		}
	}
	if !multiDraw {
		t.Error("stratified selection file records no multi-draw point")
	}

	var buf bytes.Buffer
	if err := stratFile.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSelectionFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Engine != "stratified" || len(loaded.Points) != len(stratFile.Points) {
		t.Errorf("round-trip lost engine metadata: engine %q, %d points", loaded.Engine, len(loaded.Points))
	}
}
