package harness

import (
	"context"
	"looppoint/internal/baselines"
	"looppoint/internal/core"
	"looppoint/internal/omp"
	"looppoint/internal/results"
	"looppoint/internal/timing"
)

// NaiveRow compares the naive multi-threaded SimPoint adaptation with
// LoopPoint on one application.
type NaiveRow struct {
	App          string
	Policy       string
	NaiveErrPct  float64
	LoopPointErr float64
}

// NaiveResult reproduces Section II's motivating measurement: the naive
// instruction-count SimPoint adaptation versus LoopPoint, both wait
// policies (the paper reports naive errors of 25% on average and up to
// 68.44% for active runs).
type NaiveResult struct {
	Rows []NaiveRow
}

// NaiveSimPoint runs the comparison on the configured SPEC subset.
func (e *Evaluator) NaiveSimPoint() (*NaiveResult, error) {
	res := &NaiveResult{}
	perApp, err := forEach(e, e.Opts.SpecApps(), func(name string) ([]NaiveRow, error) {
		var rows []NaiveRow
		for _, policy := range []omp.WaitPolicy{omp.Active, omp.Passive} {
			rep, err := e.Report(context.TODO(), ReportKey{
				App: name, Policy: policy, Input: e.Opts.trainInput(),
				Threads: e.Opts.Threads, Full: true,
			})
			if err != nil {
				return nil, err
			}
			app, err := e.BuildApp(name, policy, e.Opts.trainInput(), e.Opts.Threads)
			if err != nil {
				return nil, err
			}
			na, err := baselines.NaiveSimPointAnalysis(app.Prog, e.Opts.config())
			if err != nil {
				return nil, err
			}
			nsel, err := core.Select(na)
			if err != nil {
				return nil, err
			}
			nres, err := core.SimulateRegions(context.TODO(), nsel, timing.Gainestown(app.Prog.NumThreads()),
				core.SimOpts{Width: e.Opts.Parallelism})
			if err != nil {
				return nil, err
			}
			npred := core.Extrapolate(nres, timing.Gainestown(1).FreqGHz)
			nerr := core.PercentError(npred.Seconds, rep.Full.RuntimeSeconds())
			rows = append(rows, NaiveRow{
				App: name, Policy: policy.String(),
				NaiveErrPct: nerr, LoopPointErr: rep.RuntimeErrPct,
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

// Render formats the naive-SimPoint comparison.
func (r *NaiveResult) Render() string {
	t := &results.Table{
		Title:   "Section II: naive MT-SimPoint vs LoopPoint runtime error %",
		Headers: []string{"application", "policy", "naive %", "LoopPoint %"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App, row.Policy, row.NaiveErrPct, row.LoopPointErr)
	}
	return t.String()
}

// ConstrainedRow compares constrained (pinball-replay) with unconstrained
// region simulation for one application.
type ConstrainedRow struct {
	App               string
	ConstrainedErrPct float64
	UnconstrainedErr  float64
}

// ConstrainedResult reproduces Section V-A1's constrained-replay
// observation: replaying recorded thread order inserts artificial stalls
// and can mispredict runtime badly (up to 19.6% on 657.xz_s.2), while
// unconstrained simulation of the same regions stays accurate.
type ConstrainedResult struct {
	Rows []ConstrainedRow
}

// Constrained measures both simulation styles on low- and high-sync apps.
func (e *Evaluator) Constrained() (*ConstrainedResult, error) {
	apps := []string{"657.xz_s.2", "603.bwaves_s.1"}
	res := &ConstrainedResult{}
	for _, name := range apps {
		rep, err := e.Report(context.TODO(), ReportKey{
			App: name, Policy: omp.Active, Input: e.Opts.trainInput(),
			Threads: e.Opts.Threads, Full: true,
		})
		if err != nil {
			return nil, err
		}
		app, err := e.BuildApp(name, omp.Active, e.Opts.trainInput(), e.Opts.Threads)
		if err != nil {
			return nil, err
		}
		// Constrained: simulate the whole recorded pinball under replay
		// ordering and compare with the unconstrained full run.
		sim, err := timing.New(timing.Gainestown(app.Prog.NumThreads()), app.Prog)
		if err != nil {
			return nil, err
		}
		pb := rep.Selection.Analysis.Pinball
		if pb == nil {
			// A report rehydrated from the resume store carries no
			// analysis pinball; recording is fully seeded, so re-recording
			// reproduces the exact pinball the original analysis used.
			cfg := e.Opts.config()
			pb, err = core.Record(app.Prog, &cfg)
			if err != nil {
				return nil, err
			}
		}
		cst, err := sim.SimulateConstrained(pb)
		if err != nil {
			return nil, err
		}
		cerr := core.PercentError(cst.RuntimeSeconds(), rep.Full.RuntimeSeconds())
		res.Rows = append(res.Rows, ConstrainedRow{
			App:               name,
			ConstrainedErrPct: cerr,
			UnconstrainedErr:  rep.RuntimeErrPct,
		})
	}
	return res, nil
}

// Render formats the constrained-simulation comparison.
func (r *ConstrainedResult) Render() string {
	t := &results.Table{
		Title:   "SecV-A1: constrained replay vs unconstrained sampling, runtime error %",
		Headers: []string{"application", "constrained %", "unconstrained (LoopPoint) %"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App, row.ConstrainedErrPct, row.UnconstrainedErr)
	}
	return t.String()
}
