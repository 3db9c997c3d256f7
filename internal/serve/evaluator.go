package serve

import (
	"context"
	"fmt"

	"looppoint/internal/harness"
	"looppoint/internal/omp"
	"looppoint/internal/workloads"
)

// EvaluatorRunner adapts a harness.Evaluator into the server's RunFunc:
// analyze maps onto AnalyzeOnly and report onto Report (honoring Full),
// so repeated requests for the same workload hit the evaluator cache (and
// its resume store) instead of recomputing. The request is Canonical's
// output; an app the workload registry does not know is an ErrBadJob.
// The deadline context flows into core's region sweep, so an expiring
// request stops at the next region boundary.
func EvaluatorRunner(e *harness.Evaluator) RunFunc {
	return func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		if _, ok := workloads.Lookup(req.App); !ok {
			return nil, badJob("unknown app %q", req.App)
		}
		policy, _ := omp.ParseWaitPolicy(req.Policy) // Canonical admitted it
		input := workloads.InputClass(req.Input)

		res := &JobResult{ID: req.ID, Class: req.Class, App: req.App}
		if req.Class == ClassAnalyze {
			sel, _, err := e.AnalyzeOnly(ctx, req.App, policy, input, req.Threads)
			if err != nil {
				return nil, err
			}
			res.Regions = len(sel.Analysis.Profile.Regions)
			res.Points = len(sel.Points)
			res.Summary = fmt.Sprintf("%s: %d regions, %d looppoints", req.App, res.Regions, res.Points)
			return res, nil
		}

		rep, err := e.Report(ctx, harness.ReportKey{
			App: req.App, Policy: policy, Input: input,
			Threads: req.Threads, Core: coreModels[req.Core], Full: req.Full,
		})
		if err != nil {
			return nil, err
		}
		res.Regions = len(rep.Selection.Analysis.Profile.Regions)
		res.Points = len(rep.Selection.Points)
		res.PredictedSeconds = rep.Predicted.Seconds
		res.PredictedCycles = rep.Predicted.Cycles
		res.RuntimeErrPct = rep.RuntimeErrPct
		if rep.Degradation.Degraded() {
			res.Degraded = true
			res.ResidualCoverage = rep.Degradation.ResidualCoverage
		}
		res.Summary = rep.Summary()
		return res, nil
	}
}
