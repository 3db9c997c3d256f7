package harness

import (
	"context"
	"testing"

	"looppoint/internal/core"
	"looppoint/internal/omp"
)

// TestConfigFingerprintIgnoresProgressKnobs: the durable-progress knobs
// relocate mid-job checkpoints and the width only changes host time; none
// can change what an evaluation computes, so none may change a resume
// entry's key — and the shared stats pointer must not leak an address
// into it.
func TestConfigFingerprintIgnoresProgressKnobs(t *testing.T) {
	base := smokeOpts().fill()
	with := base
	with.ProgressDir = "/tmp/progress"
	with.Progress = &core.ProgressStats{}
	with.Parallelism = base.Parallelism + 3
	if resumeKey(base, "k") != resumeKey(with, "k") {
		t.Fatal("progress knobs or the width changed the resume key")
	}
	again := with
	again.Progress = &core.ProgressStats{} // different allocation, same key
	if resumeKey(with, "k") != resumeKey(again, "k") {
		t.Fatal("the resume key depends on the stats pointer identity")
	}
	if resumeKey(base, "k") == resumeKey(base, "k2") {
		t.Fatal("the resume key ignores the ReportKey")
	}
}

// TestEvaluatorProgressResumeIdentical: an evaluation run with
// -progress-dir produces the same report as one without, and a fresh
// evaluator pointed at the same directory resumes the saved recording
// and the region results instead of recomputing — the harness-level half
// of the crash-only contract (the core tests kill the process mid-job;
// here the "crash" is simply a new process image with an empty cache).
func TestEvaluatorProgressResumeIdentical(t *testing.T) {
	key := ReportKey{App: "644.nab_s.1", Policy: omp.Passive}

	ref := NewEvaluator(smokeOpts())
	key.Input = ref.Opts.trainInput()
	key.Threads = ref.Opts.Threads
	refRep, err := ref.Report(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	optsA := smokeOpts()
	optsA.ProgressDir = dir
	optsA.Progress = &core.ProgressStats{}
	repA, err := NewEvaluator(optsA).Report(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Summary() != refRep.Summary() {
		t.Fatalf("durable run diverged from stateless run:\n%s\nvs\n%s", repA.Summary(), refRep.Summary())
	}
	saves, fails, recov, _, _ := optsA.Progress.Snapshot()
	if saves == 0 || fails != 0 {
		t.Fatalf("first durable run: saves=%d fails=%d, want saves>0 fails=0", saves, fails)
	}
	if recov != 0 {
		t.Fatalf("first durable run recovered %d times with an empty progress dir", recov)
	}

	// A fresh evaluator (empty memoization cache, no resume store) over
	// the same progress dir must resume rather than recompute.
	optsB := smokeOpts()
	optsB.ProgressDir = dir
	optsB.Progress = &core.ProgressStats{}
	repB, err := NewEvaluator(optsB).Report(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if repB.Summary() != refRep.Summary() {
		t.Fatalf("resumed run diverged from stateless run:\n%s\nvs\n%s", repB.Summary(), refRep.Summary())
	}
	_, _, recovB, stepsB, _ := optsB.Progress.Snapshot()
	if recovB == 0 || stepsB == 0 {
		t.Fatalf("restart over a warm progress dir: recoveries=%d steps_saved=%d, want both > 0", recovB, stepsB)
	}
}
