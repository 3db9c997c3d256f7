package harness

import (
	"fmt"
	"time"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/core"
	"looppoint/internal/timing"
)

// The resume store makes a long experiment campaign restartable: every
// completed evaluation becomes one entry of an artifact.Store in the
// Options.Resume directory, and a fresh Evaluator pointed at the same
// directory serves it instead of redoing the record/profile/cluster/
// simulate work. Entries hold the scalar subset of a core.Report that the
// tables and figures consume (prediction, errors, speedups, degradation,
// and the selection's region/looppoint counts) — everything the renderers
// read, nothing that cannot be serialized.

// reportSchema tags the stored record's schema inside every key; change
// it when reportData or the key's fields change.
const reportSchema = "harness-report/2"

// resumeKey names one evaluation's entry.
func resumeKey(o Options, k ReportKey) string {
	return artifact.Key(resumeSig(o.config(), k, o.Degraded, o.MinCoverage))
}

// resumeSig names, field by field, everything that can change a report:
// the ReportKey, every core.Config knob and the degraded knobs, so a run
// under another configuration looks up another key. ClusterWorkers,
// ProgressDir and Progress change only host time and where mid-job state
// lives, so they are left out.
func resumeSig(c core.Config, k ReportKey, degraded bool, minCoverage float64) string {
	return fmt.Sprintf("%s|app=%s|policy=%v|input=%s|threads=%d|core=%v|full=%t|selector=%s"+
		"|slice_unit=%d|max_k=%d|seed=%d|flow_window=%d|marker_entry_budget=%d|warmup=%v|warmup_regions=%d"+
		"|region_sim=%v|sum_bbvs=%t|host_bias=%v|no_spin_filter=%t|variable_slices=%t"+
		"|engine=%s|sample_budget=%d|confidence=%v|degraded=%t|min_coverage=%v",
		reportSchema, k.App, k.Policy, k.Input, k.Threads, k.Core, k.Full, k.Selector,
		c.SliceUnit, c.MaxK, c.Seed, c.FlowWindow, c.MarkerEntryBudget, c.Warmup, c.WarmupRegions,
		c.RegionSim, c.SumBBVs, c.HostBias, c.NoSpinFilter, c.VariableSlices,
		c.Selector, c.SampleBudget, c.Confidence, degraded, minCoverage)
}

// reportData is the stored scalar subset of a core.Report.
type reportData struct {
	Name           string            `json:"name"`
	NumRegions     int               `json:"num_regions"`
	NumPoints      int               `json:"num_points"`
	Predicted      core.Prediction   `json:"predicted"`
	Full           *timing.Stats     `json:"full,omitempty"`
	FullHostTimeNS int64             `json:"full_host_time_ns,omitempty"`
	RuntimeErrPct  float64           `json:"runtime_err_pct"`
	CyclesErrPct   float64           `json:"cycles_err_pct"`
	BranchMPKIDiff float64           `json:"branch_mpki_diff"`
	L1DMPKIDiff    float64           `json:"l1d_mpki_diff"`
	L2MPKIDiff     float64           `json:"l2_mpki_diff"`
	L3MPKIDiff     float64           `json:"l3_mpki_diff"`
	Speedups       core.Speedups     `json:"speedups"`
	Degradation    *core.Degradation `json:"degradation,omitempty"`
	// Intervals round-trips the confidence-interval block byte-identically
	// (omitted for point-estimate engines, where it is nil).
	Intervals *core.Intervals `json:"intervals,omitempty"`
}

func newReportData(rep *core.Report) reportData {
	return reportData{
		Name:           rep.Name,
		NumRegions:     len(rep.Selection.Analysis.Profile.Regions),
		NumPoints:      len(rep.Selection.Points),
		Predicted:      rep.Predicted,
		Full:           rep.Full,
		FullHostTimeNS: int64(rep.FullHostTime),
		RuntimeErrPct:  rep.RuntimeErrPct,
		CyclesErrPct:   rep.CyclesErrPct,
		BranchMPKIDiff: rep.BranchMPKIDiff,
		L1DMPKIDiff:    rep.L1DMPKIDiff,
		L2MPKIDiff:     rep.L2MPKIDiff,
		L3MPKIDiff:     rep.L3MPKIDiff,
		Speedups:       rep.Speedups,
		Degradation:    rep.Degradation,
		Intervals:      rep.Intervals,
	}
}

// report rehydrates a stored record into a core.Report. The selection
// is a stub carrying only the region/looppoint counts the renderers
// read; consumers needing the analysis pinball (Constrained) re-record
// it deterministically.
func (d reportData) report() *core.Report {
	sel := &core.Selection{
		Analysis: &core.Analysis{
			Profile: &bbv.Profile{Regions: make([]*bbv.Region, d.NumRegions)},
		},
		Points: make([]core.LoopPoint, d.NumPoints),
	}
	return &core.Report{
		Name:           d.Name,
		Selection:      sel,
		Predicted:      d.Predicted,
		Degradation:    d.Degradation,
		Intervals:      d.Intervals,
		Full:           d.Full,
		FullHostTime:   time.Duration(d.FullHostTimeNS),
		RuntimeErrPct:  d.RuntimeErrPct,
		CyclesErrPct:   d.CyclesErrPct,
		BranchMPKIDiff: d.BranchMPKIDiff,
		L1DMPKIDiff:    d.L1DMPKIDiff,
		L2MPKIDiff:     d.L2MPKIDiff,
		L3MPKIDiff:     d.L3MPKIDiff,
		Speedups:       d.Speedups,
	}
}
