package baselines

import (
	"errors"
	"fmt"

	"looppoint/internal/core"
	"looppoint/internal/isa"
)

// Hybrid implements the combination the paper's Section V-B suggests:
// "a hybrid approach can be chosen to speed up smaller applications" —
// BarrierPoint outperforms LoopPoint on applications with many small
// inter-barrier regions, LoopPoint covers everything else (including
// barrier-free programs). The hybrid analyzes with both methodologies
// and keeps whichever yields the higher theoretical serial speedup.

// HybridChoice names the methodology the hybrid picked.
type HybridChoice string

// Hybrid outcomes.
const (
	ChoseLoopPoint    HybridChoice = "looppoint"
	ChoseBarrierPoint HybridChoice = "barrierpoint"
)

// HybridResult is the outcome of a hybrid analysis.
type HybridResult struct {
	Choice    HybridChoice
	Selection *core.Selection
	// Speedups of both candidates, for reporting.
	LoopPoint    core.Speedups
	BarrierPoint core.Speedups
	// BarrierPointApplicable is false for barrier-free applications.
	BarrierPointApplicable bool
}

// AnalyzeHybrid runs both methodologies and selects the better sample.
func AnalyzeHybrid(prog *isa.Program, barrierRelease uint64, cfg core.Config) (*HybridResult, error) {
	a, err := core.Analyze(prog, cfg)
	if err != nil {
		return nil, err
	}
	lpSel, err := core.Select(a)
	if err != nil {
		return nil, err
	}
	res := &HybridResult{
		Choice:    ChoseLoopPoint,
		Selection: lpSel,
		LoopPoint: core.ComputeTheoretical(lpSel),
	}

	bpa, err := AnalyzeBarrierPoint(prog, barrierRelease, cfg)
	switch {
	case errors.Is(err, ErrNoBarriers):
		return res, nil // LoopPoint is the only option
	case err != nil:
		return nil, fmt.Errorf("baselines: hybrid: %w", err)
	}
	bpSel, err := core.Select(bpa)
	if err != nil {
		return nil, err
	}
	res.BarrierPointApplicable = true
	res.BarrierPoint = core.ComputeTheoretical(bpSel)

	if res.BarrierPoint.TheoreticalSerial > res.LoopPoint.TheoreticalSerial {
		res.Choice = ChoseBarrierPoint
		res.Selection = bpSel
	}
	return res, nil
}
