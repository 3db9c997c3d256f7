package harness

import (
	"context"
	"reflect"
	"testing"

	"looppoint/internal/core"
	"looppoint/internal/omp"
)

// TestResumeKeyIgnoresProgressKnobs: the durable-progress knobs
// relocate mid-job checkpoints and the width only changes host time; none
// can change what an evaluation computes, so none may change a resume
// entry's key — and the shared stats pointer must not leak an address
// into it.
func TestResumeKeyIgnoresProgressKnobs(t *testing.T) {
	base := smokeOpts().fill()
	with := base
	with.ProgressDir = "/tmp/progress"
	with.Progress = &core.ProgressStats{}
	with.Parallelism = base.Parallelism + 3
	k := ReportKey{App: "k"}
	if resumeKey(base, k) != resumeKey(with, k) {
		t.Fatal("progress knobs or the width changed the resume key")
	}
	again := with
	again.Progress = &core.ProgressStats{} // different allocation, same key
	if resumeKey(with, k) != resumeKey(again, k) {
		t.Fatal("the resume key depends on the stats pointer identity")
	}
	if resumeKey(base, k) == resumeKey(base, ReportKey{App: "k2"}) {
		t.Fatal("the resume key ignores the ReportKey")
	}
}

// TestResumeSigNamesEveryField: every field of core.Config and of
// ReportKey either moves the resume key or is on the short list of fields
// that cannot change a report. A field added to either struct fails here
// until it is named in resumeSig or, if it only changes host time or
// where mid-job state lives, added to that list.
func TestResumeSigNamesEveryField(t *testing.T) {
	resultFree := map[string]bool{"ClusterWorkers": true, "ProgressDir": true, "Progress": true}
	cfg, k := core.DefaultConfig(), ReportKey{App: "644.nab_s.1", Input: "train", Threads: 8}
	base := resumeSig(cfg, k, false, 0)

	check := func(typ string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), v.Type().Field(i).Name
			old := reflect.ValueOf(f.Interface())
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.5)
			case reflect.String:
				f.SetString(f.String() + "x")
			case reflect.Slice:
				f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
			case reflect.Pointer:
				f.Set(reflect.New(f.Type().Elem()))
			default:
				t.Fatalf("%s.%s: no mutation for kind %v", typ, name, f.Kind())
			}
			moved := resumeSig(cfg, k, false, 0) != base
			f.Set(old)
			switch {
			case resultFree[name] && moved:
				t.Errorf("%s.%s cannot change a report but moves the resume key", typ, name)
			case !resultFree[name] && !moved:
				t.Errorf("%s.%s is not in the resume key", typ, name)
			}
		}
	}
	check("core.Config", reflect.ValueOf(&cfg).Elem())
	check("ReportKey", reflect.ValueOf(&k).Elem())
	if resumeSig(cfg, k, true, 0) == base || resumeSig(cfg, k, false, 0.5) == base {
		t.Error("the degraded knobs are not in the resume key")
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

// TestEvaluatorProgressSharedAcrossSelectors: the recording and the region
// results are named by what they are, so the selection engine — which
// reads the analysis but shapes neither — does not split them. A fresh
// evaluator under "stratified" resumes the recording a "simpoint"
// AnalyzeOnly saved in the same progress directory; a Report pair under
// the two engines also serves the regions both selections share, and the
// stratified report matches its stateless run.
func TestEvaluatorProgressSharedAcrossSelectors(t *testing.T) {
	const app = "644.nab_s.1"
	evaluator := func(dir, selector string) (*Evaluator, *core.ProgressStats) {
		opts := smokeOpts()
		opts.ProgressDir = dir
		opts.Progress = &core.ProgressStats{}
		opts.Selector = selector
		return NewEvaluator(opts), opts.Progress
	}
	ctx := context.Background()

	dir := t.TempDir()
	first, _ := evaluator(dir, "simpoint")
	input, threads := first.Opts.trainInput(), first.Opts.Threads
	if _, _, err := first.AnalyzeOnly(ctx, app, omp.Passive, input, threads); err != nil {
		t.Fatal(err)
	}
	second, ps := evaluator(dir, "stratified")
	if _, _, err := second.AnalyzeOnly(ctx, app, omp.Passive, input, threads); err != nil {
		t.Fatal(err)
	}
	if saves, _, recoveries, steps, falls := ps.Snapshot(); recoveries != 1 || steps == 0 || falls != 0 || saves != 0 {
		t.Fatalf("stratified AnalyzeOnly after simpoint: saves=%d recoveries=%d steps_saved=%d ladder_falls=%d, want 0, 1, > 0, 0",
			saves, recoveries, steps, falls)
	}

	key := ReportKey{App: app, Policy: omp.Passive, Input: input, Threads: threads}
	dir = t.TempDir()
	first, _ = evaluator(dir, "simpoint")
	if _, err := first.Report(ctx, key); err != nil {
		t.Fatal(err)
	}
	second, ps = evaluator(dir, "stratified")
	got, err := second.Report(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	// One recovery is the recording, the other the regions both
	// selections share.
	if _, _, recoveries, _, falls := ps.Snapshot(); recoveries != 2 || falls != 0 {
		t.Fatalf("stratified Report after simpoint: recoveries=%d ladder_falls=%d, want 2 (recording and shared regions) and 0",
			recoveries, falls)
	}
	stateless, _ := evaluator("", "stratified")
	want, err := stateless.Report(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary() != want.Summary() {
		t.Fatalf("stratified report over a simpoint progress directory diverged from its stateless run:\n%s\nvs\n%s", got.Summary(), want.Summary())
	}
}
