package harness

import (
	"context"
	"testing"

	"looppoint/internal/core"
	"looppoint/internal/omp"
)

// TestConfigFingerprintIgnoresProgressKnobs: the durable-progress knobs
// relocate mid-job checkpoints; they cannot change what an evaluation
// computes, so they must not invalidate a resume journal — and the
// shared stats pointer must not leak an address into the fingerprint.
func TestConfigFingerprintIgnoresProgressKnobs(t *testing.T) {
	base := smokeOpts().fill()
	with := base
	with.ProgressDir = "/tmp/progress"
	with.Progress = &core.ProgressStats{}
	if configFingerprint(base) != configFingerprint(with) {
		t.Fatal("progress knobs changed the journal config fingerprint")
	}
	again := with
	again.Progress = &core.ProgressStats{} // different allocation, same fingerprint
	if configFingerprint(with) != configFingerprint(again) {
		t.Fatal("fingerprint depends on the stats pointer identity")
	}
}

// TestEvaluatorProgressResumeIdentical: an evaluation run with
// -progress-dir produces the same report as one without, and a fresh
// evaluator pointed at the same directory resumes the saved recording
// and the region journal instead of recomputing — the harness-level half
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

	// A fresh evaluator (empty memoization cache, no resume journal) over
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
