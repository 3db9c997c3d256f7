package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

// TestSimulateRegionsCtxCancelledStopsSweep: a cancelled context stops
// the region sweep at the next region boundary instead of draining the
// queue — Run and SimulateRegions surface ctx's error, and the
// per-item contract marks unstarted regions rather than running them.
func TestSimulateRegionsCtxCancelledStopsSweep(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	a, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, _, err := SimulateRegions(ctx, sel, timing.Gainestown(p.NumThreads()), SimOpts{Width: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateRegions err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled sweep took %v — queue was drained instead of abandoned", elapsed)
	}
	if _, err := Run(ctx, p, testConfig(), timing.Gainestown(p.NumThreads()), RunOpts{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if _, _, err := SimulateRegions(ctx, sel, timing.Gainestown(p.NumThreads()), SimOpts{Width: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateRegions(width 2) err = %v, want context.Canceled", err)
	}
}

// TestRunUnderLiveDeadlineMatchesBackground: the context is pure plumbing
// — a run under a live deadline that never fires produces the report a
// run under the background context does, byte for byte.
func TestRunUnderLiveDeadlineMatchesBackground(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := testConfig()
	simCfg := timing.Gainestown(p.NumThreads())
	plain, err := Run(context.Background(), p, cfg, simCfg, RunOpts{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	viaCtx, err := Run(ctx, p, cfg, simCfg, RunOpts{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Summary() != viaCtx.Summary() {
		t.Fatalf("Run under a deadline diverged:\n%s\n%s", plain.Summary(), viaCtx.Summary())
	}
	if plain.Predicted != viaCtx.Predicted {
		t.Fatalf("predictions diverged: %+v vs %+v", plain.Predicted, viaCtx.Predicted)
	}
}
