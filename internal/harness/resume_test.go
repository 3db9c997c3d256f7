package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/core"
	"looppoint/internal/faults"
	"looppoint/internal/omp"
	"looppoint/internal/stats"
)

func resumeKeys(e *Evaluator) []ReportKey {
	return []ReportKey{
		{App: "603.bwaves_s.1", Policy: omp.Active, Input: e.Opts.trainInput(),
			Threads: e.Opts.Threads, Full: true},
		{App: "644.nab_s.1", Policy: omp.Passive, Input: e.Opts.trainInput(),
			Threads: e.Opts.Threads, Full: true},
	}
}

// storeEntries lists the resume store's entry files.
func storeEntries(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestResumeJournalSkipsCompletedWork kills a campaign between
// evaluations with an injected fault, restarts it against the same resume
// directory, and requires (a) the stored report is served without
// re-evaluating and (b) the resumed reports match an uninterrupted run
// byte-for-byte.
func TestResumeJournalSkipsCompletedWork(t *testing.T) {
	dir := t.TempDir()

	// Uninterrupted reference run (no resume store, no faults).
	ref := NewEvaluator(smokeOpts())
	refKeys := resumeKeys(ref)
	refSums := make([]string, len(refKeys))
	for i, k := range refKeys {
		rep, err := ref.Report(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		refSums[i] = rep.Summary()
	}

	// Run 1: the first evaluation completes and is stored; the fault then
	// kills every later evaluation (After skips the first invocation of
	// the site).
	opts := smokeOpts()
	opts.Resume = dir
	e1 := NewEvaluator(opts)
	restore := faults.Enable(faults.NewPlan(1,
		faults.Rule{Site: "harness.report", Kind: faults.Transient, Rate: 1, After: 1}))
	keys := resumeKeys(e1)
	rep0, err := e1.Report(context.Background(), keys[0])
	if err != nil {
		t.Fatalf("first report under fault plan: %v", err)
	}
	if _, err := e1.Report(context.Background(), keys[1]); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("second report: err = %v, want injected kill", err)
	}
	restore()
	if got := rep0.Summary(); got != refSums[0] {
		t.Errorf("faulted run report differs from reference:\n%s\n%s", got, refSums[0])
	}
	if n := len(storeEntries(t, dir)); n != 1 {
		t.Fatalf("%d store entries after one completed evaluation, want 1", n)
	}

	// Run 2: a fresh evaluator resumes from the store.
	e2 := NewEvaluator(opts)
	r0, err := e2.Report(context.Background(), keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := e2.Evaluations(); n != 0 {
		t.Errorf("stored report was re-evaluated (%d evaluations)", n)
	}
	if e2.Restored() != 1 {
		t.Fatalf("restored %d reports, want 1", e2.Restored())
	}
	if got := r0.Summary(); got != refSums[0] {
		t.Errorf("rehydrated summary differs:\n got %s\nwant %s", got, refSums[0])
	}
	r1, err := e2.Report(context.Background(), keys[1])
	if err != nil {
		t.Fatal(err)
	}
	if n := e2.Evaluations(); n != 1 {
		t.Errorf("evaluations after resume = %d, want 1", n)
	}
	if got := r1.Summary(); got != refSums[1] {
		t.Errorf("resumed summary differs:\n got %s\nwant %s", got, refSums[1])
	}

	// The second run stored its evaluation: a third evaluator serves both.
	e3 := NewEvaluator(opts)
	for _, k := range keys {
		if _, err := e3.Report(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	if e3.Restored() != 2 || e3.Evaluations() != 0 {
		t.Errorf("restored %d reports and evaluated %d after the full campaign, want 2 and 0", e3.Restored(), e3.Evaluations())
	}
}

// TestConstrainedReRecordsRestoredReports: a report served from the resume
// store carries no analysis pinball, so the constrained experiment
// re-records it through core.Record. The rows must equal those of the
// evaluator that analyzed and stored the reports.
func TestConstrainedReRecordsRestoredReports(t *testing.T) {
	opts := smokeOpts()
	opts.Resume = t.TempDir()
	fresh, err := NewEvaluator(opts).Constrained()
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEvaluator(opts)
	served, err := e2.Constrained()
	if err != nil {
		t.Fatal(err)
	}
	if e2.Restored() == 0 || e2.Evaluations() != 0 {
		t.Fatalf("restored %d reports and evaluated %d, want every report from the store", e2.Restored(), e2.Evaluations())
	}
	if !reflect.DeepEqual(served.Rows, fresh.Rows) {
		t.Errorf("re-recorded rows differ:\n got %+v\nwant %+v", served.Rows, fresh.Rows)
	}
}

// TestResumeJournalRejectsCorruptLines: a bit-flipped entry is deleted and
// re-evaluated instead of poisoning the cache, and the re-evaluation
// stores it again.
func TestResumeJournalRejectsCorruptLines(t *testing.T) {
	dir := t.TempDir()
	opts := smokeOpts()
	opts.Resume = dir
	e1 := NewEvaluator(opts)
	k := resumeKeys(e1)[0]
	if _, err := e1.Report(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	entries := storeEntries(t, dir)
	if len(entries) != 1 {
		t.Fatalf("%d store entries, want 1", len(entries))
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := NewEvaluator(opts)
	if _, err := e2.Report(context.Background(), k); err != nil {
		t.Fatalf("evaluation after a corrupt entry: %v", err)
	}
	if n := e2.Evaluations(); n != 1 || e2.Restored() != 0 {
		t.Errorf("evaluations = %d restored = %d, want 1 and 0 (a corrupt entry must not satisfy the cache)", n, e2.Restored())
	}
	if _, _, _, corrupt := e2.resume.Counters(); corrupt != 1 {
		t.Errorf("corrupt entries counted %d, want 1", corrupt)
	}
	if _, err := artifact.ReadChecksummedFile(entries[0], nil); err != nil {
		t.Errorf("the re-evaluation did not store a clean entry: %v", err)
	}
}

// TestResumeJournalRejectsConfigMismatch: an entry stored under one
// evaluator configuration must not satisfy a resume under another —
// -slice and -seed change every report's numbers
// without appearing in the ReportKey, so serving across them would
// silently serve wrong tables. Each is part of the entry's key.
func TestResumeJournalRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	opts := smokeOpts()
	opts.Resume = dir
	e1 := NewEvaluator(opts)
	k := resumeKeys(e1)[0]
	if _, err := e1.Report(context.Background(), k); err != nil {
		t.Fatal(err)
	}

	for name, edit := range map[string]func(*Options){
		"slice": func(o *Options) { o.SliceUnit = opts.config().SliceUnit * 2 },
		"seed":  func(o *Options) { o.Seed = 7 },
	} {
		mopts := opts
		edit(&mopts)
		e2 := NewEvaluator(mopts)
		if _, err := e2.Report(context.Background(), k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := e2.Evaluations(); n != 1 || e2.Restored() != 0 {
			t.Errorf("%s changed: evaluations = %d restored = %d, want 1 and 0", name, n, e2.Restored())
		}
	}

	// The matching configuration still resumes.
	e3 := NewEvaluator(opts)
	if _, err := e3.Report(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	if e3.Restored() != 1 || e3.Evaluations() != 0 {
		t.Errorf("restored %d and evaluated %d under the original config, want 1 and 0", e3.Restored(), e3.Evaluations())
	}
}

// stubReport builds a minimal rehydratable report for store tests.
func stubReport(name string, regions, points int) *core.Report {
	return &core.Report{
		Name: name,
		Selection: &core.Selection{
			Analysis: &core.Analysis{
				Profile: &bbv.Profile{Regions: make([]*bbv.Region, regions)},
			},
			Points: make([]core.LoopPoint, points),
		},
		Predicted: core.Prediction{Cycles: float64(1000 * (regions + 1))},
	}
}

// putReport stores rep under key in a resume store over dir and returns
// the entry file's bytes.
func putReport(t *testing.T, dir, key string, rep *core.Report) []byte {
	t.Helper()
	st, err := artifact.NewStore[reportData](dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := newReportData(rep)
	if err := st.Put(key, &d); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// getReport reads key from a cold resume store over dir.
func getReport(t *testing.T, dir, key string) *core.Report {
	t.Helper()
	st, err := artifact.NewStore[reportData](dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := st.Get(key); ok {
		return d.report()
	}
	return nil
}

// TestJournalTornFinalRecordTruncation simulates an entry torn at every
// possible length — a file cut short by a power cut that outran its
// write — and requires that the torn entry reads as a miss and is deleted,
// so a later store of the same key lands whole. The sole exception is a
// tear that lost only the trailing newline: the envelope is complete.
func TestJournalTornFinalRecordTruncation(t *testing.T) {
	dir := t.TempDir()
	full := putReport(t, dir, "a", stubReport("a", 3, 2))
	path := filepath.Join(dir, "a.json")
	for cut := 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := getReport(t, dir, "a")
		if complete := cut == len(full)-1; (got != nil) != complete {
			t.Fatalf("cut %d of %d: served=%v", cut, len(full), got != nil)
		}
		if cut < len(full)-1 && exists(path) {
			t.Fatalf("cut %d: the torn entry was not deleted", cut)
		}
	}
	putReport(t, dir, "a", stubReport("a", 3, 2))
	if got := getReport(t, dir, "a"); got == nil || got.Name != "a" {
		t.Fatal("the entry stored after a tear does not read back")
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// intervalsReport builds a rehydratable report carrying a confidence-
// interval block with bit-patterns that exercise float round-tripping
// (repeating binary fractions, subnormal-adjacent magnitudes).
func intervalsReport(name string) *core.Report {
	rep := stubReport(name, 5, 3)
	rep.Intervals = &core.Intervals{
		Level:        0.95,
		Cycles:       stats.Interval{Mean: 1.0 / 3.0, HalfWidth: 2.0 / 7.0},
		Seconds:      stats.Interval{Mean: 1.2345678901234567e-9, HalfWidth: 9.87654321e-12},
		Instructions: stats.Interval{Mean: 1e15 + 1, HalfWidth: 0.1},
		BranchMisses: stats.Interval{Mean: 42, HalfWidth: 0},
		Branches:     stats.Interval{Mean: 0.30000000000000004, HalfWidth: 1e-300},
		L1DMisses:    stats.Interval{Mean: 7, HalfWidth: 0.5},
		L2Misses:     stats.Interval{Mean: 3, HalfWidth: 0.25},
		L3Misses:     stats.Interval{Mean: 1, HalfWidth: 0.125},
	}
	return rep
}

// TestJournalIntervalsRoundTrip pins the confidence-interval block to a
// byte-identical store round-trip: a stored report's Intervals must
// rehydrate to exactly the same JSON bytes (hence the same float bits),
// and a nil Intervals must stay nil rather than rehydrating as a zero
// struct.
func TestJournalIntervalsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	withIV := intervalsReport("with-iv")
	putReport(t, dir, "with-iv", withIV)
	putReport(t, dir, "point-only", stubReport("point-only", 2, 2))

	got := getReport(t, dir, "with-iv")
	if got == nil || got.Intervals == nil {
		t.Fatal("intervals lost in a store round-trip")
	}
	want, err := json.Marshal(withIV.Intervals)
	if err != nil {
		t.Fatal(err)
	}
	have, err := json.Marshal(got.Intervals)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, have) {
		t.Fatalf("intervals not byte-identical after round-trip:\n want %s\n have %s", want, have)
	}
	if !reflect.DeepEqual(withIV.Intervals, got.Intervals) {
		t.Fatalf("intervals differ structurally: want %+v have %+v", withIV.Intervals, got.Intervals)
	}
	if po := getReport(t, dir, "point-only"); po == nil || po.Intervals != nil {
		t.Fatalf("nil Intervals must rehydrate as nil, got %+v", po)
	}
}

// TestJournalIntervalsTornRecord tears an entry carrying the interval
// fields at several byte offsets: the torn entry must be missed whole
// (never a half-parsed interval) while an intact interval entry loads
// losslessly.
func TestJournalIntervalsTornRecord(t *testing.T) {
	dir := t.TempDir()
	putReport(t, dir, "intact", intervalsReport("intact"))
	full := putReport(t, dir, "torn", intervalsReport("torn"))
	torn := filepath.Join(dir, "torn.json")
	for _, cut := range []int{1, len(full) / 3, len(full) / 2, len(full) - 2} {
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got := getReport(t, dir, "torn"); got != nil {
			t.Fatalf("cut %d: a torn interval entry was served", cut)
		}
		got := getReport(t, dir, "intact")
		if got == nil || got.Intervals == nil || got.Intervals.Level != 0.95 {
			t.Fatalf("cut %d: intact interval entry damaged: %+v", cut, got)
		}
	}
}
