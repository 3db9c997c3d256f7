package serve

import (
	"context"
	"fmt"

	"looppoint/internal/harness"
	"looppoint/internal/omp"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

// EvaluatorRunner adapts a harness.Evaluator into the server's RunFunc:
// the daemon's job classes map onto the evaluator's memoized entry
// points, so repeated requests for the same workload hit the evaluator
// cache (and its resume store) instead of recomputing.
//
//   - analyze  → AnalyzeOnly: profile + cluster + select, no timing.
//   - simulate → Report with Full forced off: sampled simulation and
//     extrapolation only (the cheap production shape).
//   - report   → Report honoring req.Full: optionally simulates the
//     whole program too, for error reporting.
//
// The per-request deadline context flows through the evaluator into
// core's region sweep, so an expiring request stops at the next region
// boundary instead of finishing doomed work.
func EvaluatorRunner(e *harness.Evaluator) RunFunc {
	return func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		policy := omp.Passive
		if req.Policy != "" {
			p, err := omp.ParseWaitPolicy(req.Policy)
			if err != nil {
				return nil, err
			}
			policy = p
		}
		core := timing.OOO
		switch req.Core {
		case "", "ooo":
		case "inorder":
			core = timing.InOrder
		default:
			return nil, fmt.Errorf("serve: unknown core model %q (want ooo or inorder)", req.Core)
		}
		input := workloads.InputClass(req.Input)
		if req.Input == "" {
			input = workloads.InputTrain
		}
		threads := req.Threads
		if threads < 0 {
			return nil, fmt.Errorf("serve: negative thread count %d", threads)
		}

		res := &JobResult{ID: req.ID, Class: req.Class, App: req.App}
		if req.Class == ClassAnalyze {
			sel, _, err := e.AnalyzeOnly(ctx, req.App, policy, input, threads)
			if err != nil {
				return nil, err
			}
			res.Regions = len(sel.Analysis.Profile.Regions)
			res.Points = len(sel.Points)
			res.Summary = fmt.Sprintf("%s: %d regions, %d looppoints", req.App, res.Regions, res.Points)
			return res, nil
		}

		full := req.Full && req.Class == ClassReport
		rep, err := e.Report(ctx, harness.ReportKey{
			App: req.App, Policy: policy, Input: input,
			Threads: threads, Core: core, Full: full,
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
