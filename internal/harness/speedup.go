package harness

import (
	"context"
	"errors"
	"fmt"

	"looppoint/internal/baselines"
	"looppoint/internal/core"
	"looppoint/internal/omp"
	"looppoint/internal/results"
	"looppoint/internal/workloads"
)

// SpeedupRow is one application's speedups (Figure 8).
type SpeedupRow struct {
	App                 string
	TheoreticalSerial   float64
	TheoreticalParallel float64
	ActualSerial        float64
	ActualParallel      float64
}

// Fig8Result reproduces Figure 8: theoretical vs. actual, serial vs.
// parallel speedups for SPEC train with the active wait policy.
type Fig8Result struct {
	Rows []SpeedupRow
}

// Fig8 computes speedups from the train evaluations.
func (e *Evaluator) Fig8() (*Fig8Result, error) {
	rows, err := forEach(e, e.Opts.SpecApps(), func(app string) (SpeedupRow, error) {
		rep, err := e.Report(context.TODO(), ReportKey{
			App: app, Policy: omp.Active, Input: e.Opts.trainInput(),
			Threads: e.Opts.Threads, Full: true,
		})
		if err != nil {
			return SpeedupRow{}, err
		}
		return SpeedupRow{
			App:                 app,
			TheoreticalSerial:   rep.Speedups.TheoreticalSerial,
			TheoreticalParallel: rep.Speedups.TheoreticalParallel,
			ActualSerial:        rep.Speedups.ActualSerial,
			ActualParallel:      rep.Speedups.ActualParallel,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Rows: rows}, nil
}

// Render formats Figure 8 as a table plus a log-scale chart.
func (r *Fig8Result) Render() string {
	t := &results.Table{
		Title: "Fig8: LoopPoint speedups (SPEC train, active)",
		Headers: []string{"application", "theo serial", "theo parallel",
			"actual serial", "actual parallel"},
	}
	chart := &results.BarChart{Title: "theoretical parallel speedup (log scale)", Log: true}
	for _, row := range r.Rows {
		t.AddRow(row.App, row.TheoreticalSerial, row.TheoreticalParallel,
			row.ActualSerial, row.ActualParallel)
		chart.Add(row.App, row.TheoreticalParallel)
	}
	return t.String() + "\n" + chart.String()
}

// RefSpeedupRow compares LoopPoint and BarrierPoint on ref inputs.
type RefSpeedupRow struct {
	App string
	// LoopPoint theoretical speedups.
	LPSerial, LPParallel float64
	// BarrierPoint theoretical speedups; Applicable is false for
	// barrier-free applications (657.xz_s).
	BPSerial, BPParallel float64
	BPApplicable         bool
}

// Fig9Result reproduces Figure 9: LoopPoint vs. BarrierPoint theoretical
// speedup on SPEC ref inputs (passive wait policy). Ref runs are analyzed
// and sampled but never fully simulated — exactly the regime the paper
// targets (full ref simulation would take months to years, Figure 1).
type Fig9Result struct {
	Rows []RefSpeedupRow
}

// Fig9 runs the ref-input analysis for both methodologies.
func (e *Evaluator) Fig9() (*Fig9Result, error) {
	rows, err := forEach(e, e.Opts.SpecApps(), func(name string) (RefSpeedupRow, error) {
		sel, app, err := e.AnalyzeOnly(context.TODO(), name, omp.Passive, e.Opts.refInput(), e.Opts.Threads)
		if err != nil {
			return RefSpeedupRow{}, err
		}
		lp := core.ComputeTheoretical(sel)
		row := RefSpeedupRow{App: name, LPSerial: lp.TheoreticalSerial, LPParallel: lp.TheoreticalParallel}

		bpa, err := baselines.AnalyzeBarrierPoint(app.Prog, app.Runtime.BarrierReleaseAddr(), e.Opts.config())
		switch {
		case errors.Is(err, baselines.ErrNoBarriers):
			row.BPApplicable = false
		case err != nil:
			return RefSpeedupRow{}, err
		default:
			bsel, err := core.Select(bpa)
			if err != nil {
				return RefSpeedupRow{}, err
			}
			bp := core.ComputeTheoretical(bsel)
			row.BPApplicable = true
			row.BPSerial, row.BPParallel = bp.TheoreticalSerial, bp.TheoreticalParallel
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Rows: rows}, nil
}

// Render formats Figure 9.
func (r *Fig9Result) Render() string {
	t := &results.Table{
		Title: "Fig9: theoretical speedup, SPEC ref inputs (passive)",
		Headers: []string{"application", "LoopPoint serial", "LoopPoint parallel",
			"BarrierPoint serial", "BarrierPoint parallel"},
	}
	for _, row := range r.Rows {
		bs, bp := "n/a (no barriers)", ""
		if row.BPApplicable {
			bs = fmt.Sprintf("%.1f", row.BPSerial)
			bp = fmt.Sprintf("%.1f", row.BPParallel)
		}
		t.AddRow(row.App, row.LPSerial, row.LPParallel, bs, bp)
	}
	return t.String()
}

// NPBSpeedupRow is one NPB application's actual speedups at 8/16 cores.
type NPBSpeedupRow struct {
	App                   string
	Parallel8, Parallel16 float64
	Serial8, Serial16     float64
}

// Fig10Result reproduces Figure 10: NPB actual speedups, 8 vs. 16 cores,
// class C, passive.
type Fig10Result struct {
	Rows []NPBSpeedupRow
}

// Fig10 measures actual speedups on the NPB suite.
func (e *Evaluator) Fig10() (*Fig10Result, error) {
	rows, err := forEach(e, e.Opts.NPBApps(), func(app string) (NPBSpeedupRow, error) {
		row := NPBSpeedupRow{App: app}
		for _, threads := range []int{8, 16} {
			rep, err := e.Report(context.TODO(), ReportKey{
				App: app, Policy: omp.Passive, Input: e.Opts.npbInput(),
				Threads: threads, Full: true,
			})
			if err != nil {
				return NPBSpeedupRow{}, err
			}
			if threads == 8 {
				row.Parallel8, row.Serial8 = rep.Speedups.ActualParallel, rep.Speedups.ActualSerial
			} else {
				row.Parallel16, row.Serial16 = rep.Speedups.ActualParallel, rep.Speedups.ActualSerial
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Rows: rows}, nil
}

// Render formats Figure 10.
func (r *Fig10Result) Render() string {
	t := &results.Table{
		Title: "Fig10: NPB actual speedups (class C, passive)",
		Headers: []string{"application", "serial 8c", "parallel 8c",
			"serial 16c", "parallel 16c"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App, row.Serial8, row.Parallel8, row.Serial16, row.Parallel16)
	}
	return t.String()
}

// Fig1Row is one suite×input evaluation-time estimate.
type Fig1Row struct {
	Label string
	// Seconds at paper scale (instruction counts × workloads.Scale at
	// 100 KIPS detailed simulation speed), averaged across the suite;
	// Max* carries the largest application.
	FullDetail, TimeBased, BarrierPoint, LoopPoint float64
}

// Fig1Result reproduces Figure 1: approximate time to evaluate the
// benchmark suites under each methodology, assuming infinite simulation
// resources (the longest region bounds parallel sampled simulation) and
// 100 KIPS detailed simulation speed.
type Fig1Result struct {
	Rows  []Fig1Row
	Model baselines.SimCostModel
}

// Fig1 profiles each suite×input combination and applies the simulation
// cost model. Instruction counts are multiplied by workloads.Scale to
// place the estimates at the paper's scale.
func (e *Evaluator) Fig1() (*Fig1Result, error) {
	res := &Fig1Result{Model: baselines.DefaultCostModel()}
	combos := []struct {
		label string
		apps  []string
		input workloads.InputClass
	}{
		{"SPEC train", e.Opts.SpecApps(), e.Opts.trainInput()},
		{"SPEC ref", e.Opts.SpecApps(), e.Opts.refInput()},
		{"NPB C", e.Opts.NPBApps(), e.Opts.npbInput()},
		{"NPB D", e.Opts.NPBApps(), e.Opts.npbLargeInput()},
	}
	for _, cb := range combos {
		var row Fig1Row
		row.Label = cb.label
		// Per-app cost estimates computed on the pool; the deterministic
		// part is that contributions are summed in app order below.
		contribs, err := forEach(e, cb.apps, func(name string) (Fig1Row, error) {
			sel, app, err := e.AnalyzeOnly(context.TODO(), name, omp.Passive, cb.input, e.Opts.Threads)
			if err != nil {
				return Fig1Row{}, err
			}
			prof := sel.Analysis.Profile
			total := float64(prof.TotalICount) * workloads.Scale
			var largest float64
			for _, lp := range sel.Points {
				if f := float64(lp.Region.UnfilteredLen()); f > largest {
					largest = f
				}
			}
			largest *= workloads.Scale

			bpLargest := total // BarrierPoint degenerates to the whole app without barriers
			if bpa, err := baselines.AnalyzeBarrierPoint(app.Prog, app.Runtime.BarrierReleaseAddr(), e.Opts.config()); err == nil {
				st := baselines.RegionStats(bpa)
				bpLargest = float64(st.LargestRegion) * workloads.Scale
			}
			return Fig1Row{
				FullDetail:   res.Model.FullDetail(total),
				TimeBased:    res.Model.TimeBasedTime(total, 0.01),
				BarrierPoint: res.Model.SampledParallelTime(bpLargest),
				LoopPoint:    res.Model.SampledParallelTime(largest),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		for _, c := range contribs {
			row.FullDetail += c.FullDetail
			row.TimeBased += c.TimeBased
			row.BarrierPoint += c.BarrierPoint
			row.LoopPoint += c.LoopPoint
		}
		if n := float64(len(contribs)); n > 0 {
			row.FullDetail /= n
			row.TimeBased /= n
			row.BarrierPoint /= n
			row.LoopPoint /= n
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats Figure 1 with human time units.
func (r *Fig1Result) Render() string {
	t := &results.Table{
		Title: "Fig1: estimated evaluation time per methodology (100 KIPS detail, parallel resources)",
		Headers: []string{"suite/input", "full detail", "time-based",
			"BarrierPoint", "LoopPoint"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Label, results.Seconds(row.FullDetail), results.Seconds(row.TimeBased),
			results.Seconds(row.BarrierPoint), results.Seconds(row.LoopPoint))
	}
	return t.String()
}
