package harness

import (
	"context"
	"fmt"

	"looppoint/internal/omp"
	"looppoint/internal/results"
	"looppoint/internal/simpoint"
)

// EngineRow is one (application, engine) evaluation in the selection-
// engine comparison.
type EngineRow struct {
	App    string
	Engine string
	// Points is the number of simulated looppoints (draws).
	Points int
	// RuntimeErrPct is the prediction error versus the full simulation.
	RuntimeErrPct float64
	// Runtime carries the predicted runtime and, for multi-draw engines,
	// its half-width at Level; HalfWidth is 0 for point estimates.
	RuntimeSec       float64
	RuntimeHalfWidth float64
	// CyclesMean/CyclesHalfWidth mirror Runtime for the cycle count.
	CyclesMean      float64
	CyclesHalfWidth float64
	// Level is the interval confidence level (0 when no interval exists).
	Level float64
	// Covered reports whether the runtime interval contains the measured
	// full-simulation runtime (always false for point estimates).
	Covered bool
}

// EnginesResult compares every selection engine on the same
// applications: prediction error of the classic medoid rule, the
// stratified multi-draw engine (with its confidence interval), and the
// time-based baseline, all under one region definition and budget.
type EnginesResult struct {
	Rows []EngineRow
}

// Engines evaluates the given engines (nil = every engine)
// over the configured SPEC subset with full-simulation ground truth.
func (e *Evaluator) Engines(engines []string) (*EnginesResult, error) {
	if engines == nil {
		engines = simpoint.SelectorNames()
	}
	apps := e.Opts.SpecApps()
	if !e.Opts.Quick && len(apps) > 4 {
		// The full SPEC sweep times every engine; cap the comparison at a
		// representative prefix so the experiment stays tractable.
		apps = apps[:4]
	}
	res := &EnginesResult{}
	perApp, err := forEach(e, apps, func(name string) ([]EngineRow, error) {
		var rows []EngineRow
		for _, engine := range engines {
			rep, err := e.Report(context.TODO(), ReportKey{
				App: name, Policy: omp.Active, Input: e.Opts.trainInput(),
				Threads: e.Opts.Threads, Full: true, Selector: engine,
			})
			if err != nil {
				return nil, err
			}
			row := EngineRow{
				App:    name,
				Engine: engine,
				// Selection.Points survives resume-store rehydration (Regions
				// does not), so resumed campaigns render the same counts.
				Points:        len(rep.Selection.Points),
				RuntimeErrPct: rep.RuntimeErrPct,
				RuntimeSec:    rep.Predicted.Seconds,
			}
			if rep.Intervals != nil {
				iv := rep.Intervals
				row.RuntimeSec = iv.Seconds.Mean
				row.RuntimeHalfWidth = iv.Seconds.HalfWidth
				row.CyclesMean = iv.Cycles.Mean
				row.CyclesHalfWidth = iv.Cycles.HalfWidth
				row.Level = iv.Level
				if rep.Full != nil {
					row.Covered = iv.Seconds.Covers(rep.Full.RuntimeSeconds())
				}
			} else {
				row.CyclesMean = rep.Predicted.Cycles
			}
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range perApp {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// Render formats the engine comparison. Multi-draw engines show
// mean ± half-width cells; point-estimate engines show plain means.
func (r *EnginesResult) Render() string {
	t := &results.Table{
		Title: "selection engines: prediction error and confidence intervals",
		Headers: []string{"application", "engine", "points", "runtime err %",
			"runtime s", "cycles", "level", "covered"},
	}
	for _, row := range r.Rows {
		var runtime, cycles interface{} = row.RuntimeSec, row.CyclesMean
		level, covered := "-", "-"
		if row.Level > 0 {
			runtime = results.FormatCI(row.RuntimeSec, row.RuntimeHalfWidth)
			cycles = results.FormatCI(row.CyclesMean, row.CyclesHalfWidth)
			level = fmt.Sprintf("%.0f%%", row.Level*100)
			if row.Covered {
				covered = "yes"
			} else {
				covered = "no"
			}
		}
		t.AddRow(row.App, row.Engine, row.Points, row.RuntimeErrPct,
			runtime, cycles, level, covered)
	}
	return t.String()
}
