package harness

import (
	"context"
	"fmt"
	"strings"

	"looppoint/internal/omp"
	"looppoint/internal/results"
	"looppoint/internal/timing"
)

// ErrRow is one application's prediction errors under both wait policies.
type ErrRow struct {
	App     string
	Active  float64
	Passive float64
}

// AccuracyResult reproduces Figure 5a (and, with the in-order core,
// Figure 5b): per-application runtime prediction error for active and
// passive wait policies.
type AccuracyResult struct {
	Figure     string
	Core       timing.CoreKind
	Rows       []ErrRow
	AvgActive  float64
	AvgPassive float64
}

// Fig5a measures runtime prediction errors on SPEC CPU2017 train inputs
// with 8 threads, unconstrained simulation, both wait policies.
func (e *Evaluator) Fig5a() (*AccuracyResult, error) {
	return e.accuracy("Fig5a", timing.OOO)
}

// Fig5b repeats Figure 5a's experiment on the in-order core model: the
// looppoints are selected by the same microarchitecture-independent
// analysis, demonstrating portability across core types.
func (e *Evaluator) Fig5b() (*AccuracyResult, error) {
	return e.accuracy("Fig5b", timing.InOrder)
}

func (e *Evaluator) accuracy(figure string, kind timing.CoreKind) (*AccuracyResult, error) {
	res := &AccuracyResult{Figure: figure, Core: kind}
	rows, err := forEach(e, e.Opts.SpecApps(), func(app string) (ErrRow, error) {
		row := ErrRow{App: app}
		for _, policy := range []omp.WaitPolicy{omp.Active, omp.Passive} {
			rep, err := e.Report(context.TODO(), ReportKey{
				App: app, Policy: policy, Input: e.Opts.trainInput(),
				Threads: e.Opts.Threads, Core: kind, Full: true,
			})
			if err != nil {
				return ErrRow{}, err
			}
			if policy == omp.Active {
				row.Active = rep.RuntimeErrPct
			} else {
				row.Passive = rep.RuntimeErrPct
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	for _, r := range res.Rows {
		res.AvgActive += r.Active
		res.AvgPassive += r.Passive
	}
	if n := float64(len(res.Rows)); n > 0 {
		res.AvgActive /= n
		res.AvgPassive /= n
	}
	return res, nil
}

// Render formats the result as the paper's figure data.
func (r *AccuracyResult) Render() string {
	t := &results.Table{
		Title:   fmt.Sprintf("%s: runtime prediction error %% (SPEC train, %v core, unconstrained)", r.Figure, r.Core),
		Headers: []string{"application", "active %", "passive %"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App, row.Active, row.Passive)
	}
	t.AddRow("AVERAGE", r.AvgActive, r.AvgPassive)
	return t.String()
}

// NPBThreadRow is one NPB application's error at two thread counts.
type NPBThreadRow struct {
	App         string
	Err8, Err16 float64
}

// Fig6Result reproduces Figure 6: NPB runtime prediction error at 8 and
// 16 threads (class C, passive).
type Fig6Result struct {
	Rows        []NPBThreadRow
	Avg8, Avg16 float64
}

// Fig6 evaluates the NPB suite at 8 and 16 threads.
func (e *Evaluator) Fig6() (*Fig6Result, error) {
	res := &Fig6Result{}
	rows, err := forEach(e, e.Opts.NPBApps(), func(app string) (NPBThreadRow, error) {
		row := NPBThreadRow{App: app}
		for _, threads := range []int{8, 16} {
			rep, err := e.Report(context.TODO(), ReportKey{
				App: app, Policy: omp.Passive, Input: e.Opts.npbInput(),
				Threads: threads, Full: true,
			})
			if err != nil {
				return NPBThreadRow{}, err
			}
			if threads == 8 {
				row.Err8 = rep.RuntimeErrPct
			} else {
				row.Err16 = rep.RuntimeErrPct
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	for _, r := range res.Rows {
		res.Avg8 += r.Err8
		res.Avg16 += r.Err16
	}
	if n := float64(len(res.Rows)); n > 0 {
		res.Avg8 /= n
		res.Avg16 /= n
	}
	return res, nil
}

// Render formats Figure 6.
func (r *Fig6Result) Render() string {
	t := &results.Table{
		Title:   "Fig6: NPB (class C, passive) runtime prediction error %",
		Headers: []string{"application", "8 threads %", "16 threads %"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App, row.Err8, row.Err16)
	}
	t.AddRow("AVERAGE", r.Avg8, r.Avg16)
	return t.String()
}

// MetricsRow carries Figure 7's per-application metric comparisons.
type MetricsRow struct {
	App            string
	Policy         string
	CyclesErrPct   float64
	BranchMPKIDiff float64
	L2MPKIDiff     float64
	L3MPKIDiff     float64
}

// Fig7Result reproduces Figures 7a–7c: prediction quality for cycles
// (percent error) and branch/L2 MPKI (absolute differences — the paper
// reports absolute diffs because the base values are small).
type Fig7Result struct {
	Rows []MetricsRow
}

// Fig7 extracts metric predictions from the Figure 5a runs.
func (e *Evaluator) Fig7() (*Fig7Result, error) {
	res := &Fig7Result{}
	perApp, err := forEach(e, e.Opts.SpecApps(), func(app string) ([]MetricsRow, error) {
		var rows []MetricsRow
		for _, policy := range []omp.WaitPolicy{omp.Active, omp.Passive} {
			rep, err := e.Report(context.TODO(), ReportKey{
				App: app, Policy: policy, Input: e.Opts.trainInput(),
				Threads: e.Opts.Threads, Full: true,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, MetricsRow{
				App:            app,
				Policy:         policy.String(),
				CyclesErrPct:   rep.CyclesErrPct,
				BranchMPKIDiff: rep.BranchMPKIDiff,
				L2MPKIDiff:     rep.L2MPKIDiff,
				L3MPKIDiff:     rep.L3MPKIDiff,
			})
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

// Render formats Figure 7.
func (r *Fig7Result) Render() string {
	t := &results.Table{
		Title: "Fig7: metric prediction (SPEC train, 8 threads, unconstrained)",
		Headers: []string{"application", "policy", "cycles err %",
			"branch MPKI |diff|", "L2 MPKI |diff|", "L3 MPKI |diff|"},
	}
	var b strings.Builder
	for _, row := range r.Rows {
		t.AddRow(row.App, row.Policy, row.CyclesErrPct, row.BranchMPKIDiff,
			row.L2MPKIDiff, row.L3MPKIDiff)
	}
	b.WriteString(t.String())
	return b.String()
}
