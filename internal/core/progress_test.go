package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

// durableConfig is testConfig with durable progress aimed at dir and a
// fresh stats sink.
func durableConfig(dir string) Config {
	cfg := testConfig()
	cfg.ProgressDir = dir
	cfg.ProgressEvery = 2048
	cfg.ProgressKey = "job"
	cfg.Progress = &ProgressStats{}
	return cfg
}

// progressFiles lists the job's epoch files in dir.
func progressFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".progress") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return files
}

// runDurable is Analyze's durable route without its stateless fallback,
// so a failure of the crash-only path cannot hide behind a correct
// stateless result.
func runDurable(p *isa.Program, cfg Config) (*Analysis, error) {
	cfg.fill()
	dp, err := openProgress(p, &cfg)
	if err != nil {
		return nil, err
	}
	return analyze(p, cfg, dp)
}

// crashAnalyze runs the durable analysis with a one-shot Panic armed at
// the save site — the in-process stand-in for SIGKILL mid-job — and
// reports whether the "kill" fired (a run that outlives the kill position
// returns its analysis instead). Progress written before the kill stays
// durable; the epoch being saved when the kill lands is lost, exactly
// like a real torn run.
func crashAnalyze(t *testing.T, p *isa.Program, cfg Config, after uint64) (a *Analysis, killed bool) {
	t.Helper()
	plan := faults.NewPlan(faults.SeedFromEnv(7),
		faults.Rule{Site: "core.progress.save", Kind: faults.Panic, Rate: 1, Count: 1, After: after})
	defer faults.Enable(plan)()
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *faults.Fault:
			killed = true
		default:
			panic(r)
		}
	}()
	a, err := runDurable(p, cfg)
	if err != nil {
		t.Fatalf("durable analysis died before the kill: %v", err)
	}
	return a, false
}

// TestAnalyzeDurableResumeAfterKill is the chaos drill: kill the worker
// right after the step-0 save, mid-BBV and near the tail, restart it
// cold, and require the resumed run to (a) recover from the durable
// prefix instead of re-recording — skipping every BBV step behind the
// rung (recovery_steps_saved > 0 for any rung past step 0; the step-0
// rung saves the recording run and its graph, which the counter does not
// measure) — and (b) produce an analysis byte-identical to the
// uninterrupted serial reference.
func TestAnalyzeDurableResumeAfterKill(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	want := referenceAnalysis(t, p, testConfig())

	// Count the clean run's saves so kill positions can target the
	// start, the middle, and the tail.
	probe := durableConfig(t.TempDir())
	probe.fill()
	if _, err := runDurable(p, probe); err != nil {
		t.Fatal(err)
	}
	saves, _, _, _, _ := probe.Progress.Snapshot()
	if saves < 4 {
		t.Fatalf("only %d epoch saves; recording too short for the drill", saves)
	}

	for _, after := range []uint64{1, saves / 2, saves - 2} {
		dir := t.TempDir()
		cfg := durableConfig(dir)
		cfg.fill()
		if _, killed := crashAnalyze(t, p, cfg, after); !killed {
			t.Fatalf("kill after %d saves never fired", after)
		}
		if len(progressFiles(t, dir)) == 0 {
			t.Fatalf("kill after %d saves left no durable progress", after)
		}

		// Cold restart: fresh stats, no faults.
		cfg.Progress = &ProgressStats{}
		got, err := runDurable(p, cfg)
		if err != nil {
			t.Fatalf("restart after kill@%d: %v", after, err)
		}
		analysisEquals(t, "resumed", got, want)
		_, _, recoveries, stepsSaved, _ := cfg.Progress.Snapshot()
		if recoveries != 1 {
			t.Fatalf("kill@%d: %d recoveries, want 1", after, recoveries)
		}
		if (stepsSaved > 0) != (after > 1) {
			t.Fatalf("kill@%d: recovery saved %d steps", after, stepsSaved)
		}
	}
}

// TestAnalyzeDurableCorruptLadderFalls: with the newest epoch file
// bit-flipped and a stray temp file in the directory, the restart falls
// one rung down the ladder, resumes from the older epoch, and still
// reproduces the reference analysis. With every rung corrupted it falls
// to the bottom of the ladder and re-records (the graph lives only in the
// epoch files) — corruption never wedges or poisons a job.
func TestAnalyzeDurableCorruptLadderFalls(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	want := referenceAnalysis(t, p, testConfig())

	dir := t.TempDir()
	dcfg := durableConfig(dir)
	dcfg.fill()
	if _, killed := crashAnalyze(t, p, dcfg, 5); !killed {
		t.Fatal("kill never fired")
	}
	files := progressFiles(t, dir)
	if len(files) != progressRetain {
		t.Fatalf("%d retained epoch files, want %d", len(files), progressRetain)
	}

	// Corrupt the newest rung; leave a stray temp file (the crash-
	// between-write-and-rename artifact) that loaders must ignore.
	newest := files[len(files)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest+".tmp123", []byte("torn temp write"), 0o644); err != nil {
		t.Fatal(err)
	}

	dcfg.Progress = &ProgressStats{}
	got, err := runDurable(p, dcfg)
	if err != nil {
		t.Fatalf("restart over corrupt rung: %v", err)
	}
	analysisEquals(t, "ladder-fall resume", got, want)
	_, _, recoveries, _, falls := dcfg.Progress.Snapshot()
	if falls < 1 {
		t.Fatalf("%d ladder falls, want >= 1", falls)
	}
	if recoveries != 1 {
		t.Fatalf("%d recoveries, want 1 (from the older rung)", recoveries)
	}
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Fatalf("corrupt rung %s not quarantined", newest)
	}

	// Corrupt every remaining rung: restart must re-record and still
	// match.
	for _, f := range progressFiles(t, dir) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-3] ^= 0x80
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dcfg.Progress = &ProgressStats{}
	got, err = runDurable(p, dcfg)
	if err != nil {
		t.Fatalf("restart by re-recording: %v", err)
	}
	analysisEquals(t, "re-recorded", got, want)
	_, _, recoveries, _, _ = dcfg.Progress.Snapshot()
	if recoveries != 0 {
		t.Fatalf("%d recoveries with every rung corrupt, want 0", recoveries)
	}
}

// TestAnalyzeDurableSaveFaultNonFatal: every save failing (injected
// Transient) costs resumability, never the analysis itself.
func TestAnalyzeDurableSaveFaultNonFatal(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	want := referenceAnalysis(t, p, testConfig())
	dir := t.TempDir()
	dcfg := durableConfig(dir)
	dcfg.fill()
	defer faults.Enable(faults.NewPlan(faults.SeedFromEnv(3),
		faults.Rule{Site: "core.progress.save", Kind: faults.Transient, Rate: 1}))()
	got, err := runDurable(p, dcfg)
	if err != nil {
		t.Fatalf("analysis failed under save faults: %v", err)
	}
	analysisEquals(t, "save-faulted", got, want)
	saves, fails, _, _, _ := dcfg.Progress.Snapshot()
	if saves != 0 || fails == 0 {
		t.Fatalf("saves=%d fails=%d under a Rate-1 Transient", saves, fails)
	}
	if n := len(progressFiles(t, dir)); n != 0 {
		t.Fatalf("%d progress files written despite save faults", n)
	}
}

// TestAnalyzeDurableLoadFaultFallsToZero: transient load faults on every
// rung mean no recovery — but the rungs are NOT quarantined (the bytes
// were never proven bad), and the job completes by re-recording.
func TestAnalyzeDurableLoadFaultFallsToZero(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.fill()
	if _, killed := crashAnalyze(t, p, cfg, 4); !killed {
		t.Fatal("kill never fired")
	}
	before := len(progressFiles(t, dir))
	if before == 0 {
		t.Fatal("no durable progress to fault")
	}
	cfg.Progress = &ProgressStats{}
	restore := faults.Enable(faults.NewPlan(faults.SeedFromEnv(3),
		faults.Rule{Site: "core.progress.load", Kind: faults.Transient, Rate: 1}))
	_, err := runDurable(p, cfg)
	restore()
	if err != nil {
		t.Fatalf("analysis failed under load faults: %v", err)
	}
	_, _, recoveries, _, falls := cfg.Progress.Snapshot()
	if recoveries != 0 || falls < uint64(before) {
		t.Fatalf("recoveries=%d falls=%d under Rate-1 load faults over %d rungs", recoveries, falls, before)
	}
}

// TestProgressFingerprintCoversVariableSlices: variable slicing reaches
// the durable route and changes the profile, so a job must never resume
// epochs written under the other setting. Two runs share one progress
// directory and key, differing only in VariableSlices: the second starts
// clean (no recovery) and matches its own stateless run.
func TestProgressFingerprintCoversVariableSlices(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	dir := t.TempDir()
	fixed := durableConfig(dir)
	variableSlices(&fixed)
	fixed.VariableSlices = false
	fx, err := Analyze(p, fixed)
	if err != nil {
		t.Fatal(err)
	}
	variable := durableConfig(dir)
	variableSlices(&variable)
	got, err := Analyze(p, variable)
	if err != nil {
		t.Fatal(err)
	}
	saves, _, recoveries, _, falls := variable.Progress.Snapshot()
	if saves == 0 || recoveries != 0 || falls != 0 {
		t.Fatalf("saves=%d recoveries=%d ladder_falls=%d: the toggled job did not start clean", saves, recoveries, falls)
	}
	stateless := testConfig()
	variableSlices(&stateless)
	want, err := Analyze(p, stateless)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Profile, want.Profile) {
		t.Fatal("durable variable-slices profile differs from the stateless run")
	}
	if reflect.DeepEqual(fx.Profile, want.Profile) {
		t.Fatal("variable slicing left the profile unchanged; the toggle proves nothing on this program")
	}
}

// TestProgressEnvelopeTruncation: a truncation at any 8-byte boundary
// (and at the raw tail) classifies as ErrTruncated with a byte offset,
// never a panic or a silent success.
func TestProgressEnvelopeTruncation(t *testing.T) {
	data := buildProgressEnvelope(t)
	for cut := 0; cut < len(data); cut += 8 {
		if _, _, err := decodeProgress(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(data))
		} else if !errors.Is(err, artifact.ErrTruncated) && !errors.Is(err, artifact.ErrCorrupt) {
			t.Fatalf("truncation at %d: wrong class %v", cut, err)
		}
	}
	if _, _, err := decodeProgress(data[:len(data)-1]); !errors.Is(err, artifact.ErrTruncated) && !errors.Is(err, artifact.ErrCorrupt) {
		t.Fatalf("tail truncation: wrong class %v", err)
	}
	if _, _, err := decodeProgress(data); err != nil {
		t.Fatalf("pristine envelope rejected: %v", err)
	}
}

// TestProgressEnvelopeCorruptFlips: single-bit flips across the file —
// sampled at a prime stride plus both edges — always classify into the
// artifact sentinels.
func TestProgressEnvelopeCorruptFlips(t *testing.T) {
	data := buildProgressEnvelope(t)
	offsets := []int{0, 1, 7, 8, 15, len(data) - 2, len(data) - 1}
	for off := 16; off < len(data); off += 251 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		_, _, err := decodeProgress(mut)
		if err == nil {
			t.Fatalf("bit flip at %d accepted", off)
		}
		if !errors.Is(err, artifact.ErrCorrupt) && !errors.Is(err, artifact.ErrTruncated) && !errors.Is(err, artifact.ErrVersion) {
			t.Fatalf("bit flip at %d: unclassified error %v", off, err)
		}
	}
}

// TestProgressEnvelopeVersionSkew: a future format version (with a
// recomputed valid checksum) classifies as ErrVersion.
func TestProgressEnvelopeVersionSkew(t *testing.T) {
	data := buildProgressEnvelope(t)
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(mut[len(progMagic):], progressVersion+1)
	sum := artifact.Update(artifact.FNVOffset, mut[len(progMagic):len(mut)-8])
	binary.LittleEndian.PutUint64(mut[len(mut)-8:], sum)
	if _, _, err := decodeProgress(mut); !errors.Is(err, artifact.ErrVersion) {
		t.Fatalf("version skew classified as %v, want ErrVersion", err)
	}
}

// buildProgressEnvelope encodes a genuine step-0 progress file from a
// short recording: the finished graph plus a fresh collector.
func buildProgressEnvelope(t *testing.T) []byte {
	t.Helper()
	p := testprog.Phased(2, 3, 30, omp.Passive)
	cfg := testConfig()
	cfg.fill()
	pb, g := recordFor(t, p, cfg)
	bp, err := newBBVPass(p, &cfg, pb, g, pb.StartCheckpoint(), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeProgress(bp.ck, &progressState{
		Job: "job-fp", Epoch: 3, Total: pb.Schedule.Steps(),
		Graph: g.State(), Collector: bp.col.State(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSimulateRegionsResumeFromJournal: a sweep journals every region;
// a restarted sweep serves all of them from the journal — proven by
// arming a Rate-1 fault at the simulation site, which recovered regions
// never reach — with identical results including recorded host times.
func TestSimulateRegionsResumeFromJournal(t *testing.T) {
	dir := t.TempDir()
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := durableConfig(dir)
	a, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	first, err := simulateAll(sel, timing.Gainestown(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	saves1, _, _, _, _ := cfg.Progress.Snapshot()

	// Every fresh simulation would fail — recovered regions never
	// simulate, so an error-free identical sweep proves full recovery.
	defer faults.Enable(faults.NewPlan(faults.SeedFromEnv(2),
		faults.Rule{Site: "core.region.sim", Kind: faults.Transient, Rate: 1}))()
	second, err := simulateAll(sel, timing.Gainestown(4), 2)
	if err != nil {
		t.Fatalf("journal-resumed sweep failed: %v", err)
	}
	if !reflect.DeepEqual(second, first) {
		t.Fatal("journal-resumed results differ from the original sweep")
	}
	saves2, _, recoveries, stepsSaved, _ := cfg.Progress.Snapshot()
	if recoveries == 0 || stepsSaved == 0 {
		t.Fatalf("recoveries=%d stepsSaved=%d after journal resume", recoveries, stepsSaved)
	}
	if saves2 != saves1 {
		t.Fatalf("journal grew on a fully recovered sweep (%d -> %d saves)", saves1, saves2)
	}
}

// TestSimProgressCorruptLineResimulated: a corrupted journal line drops
// its region from recovery; the restarted sweep re-simulates exactly
// that region and the statistics still match end to end.
func TestSimProgressCorruptLineResimulated(t *testing.T) {
	dir := t.TempDir()
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := durableConfig(dir)
	a, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	first, err := simulateAll(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the first journal line's record.
	var simPath string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".sim.progress") {
			simPath = filepath.Join(dir, e.Name())
		}
	}
	if simPath == "" {
		t.Fatal("no sim journal written")
	}
	data, err := os.ReadFile(simPath)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 2 {
		t.Fatal("journal has no complete line")
	}
	data[nl/2] ^= 0x04
	if err := os.WriteFile(simPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	second, err := simulateAll(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != len(first) {
		t.Fatalf("%d results after corrupt line, want %d", len(second), len(first))
	}
	for i := range first {
		if !reflect.DeepEqual(second[i].Stats, first[i].Stats) {
			t.Fatalf("region %d stats differ after journal corruption", i)
		}
	}
}

// TestSimulateRegionsResumePartialDegraded: a degraded sweep that loses
// regions journals only the survivors; the clean restart re-simulates
// just the losses and matches the never-faulted reference.
func TestSimulateRegionsResumePartialDegraded(t *testing.T) {
	dir := t.TempDir()
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := durableConfig(dir)
	a, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := simulateAll(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Wipe the journal the reference sweep just wrote: the degraded
	// sweep below must start cold to lose anything.
	for _, f := range simJournals(t, dir) {
		os.Remove(f)
	}

	restore := faults.Enable(faults.NewPlan(faults.SeedFromEnv(4),
		faults.Rule{Site: "core.region.sim", Kind: faults.Transient, Rate: 1, Count: 1}))
	partial, deg, err := SimulateRegions(context.Background(), sel, timing.Gainestown(4), SimOpts{
		Width: 1, Degraded: true, MinCoverage: 0.01,
	})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded() || len(partial) >= len(sel.Points) {
		t.Fatalf("fault did not degrade the sweep (%d of %d survived)", len(partial), len(sel.Points))
	}

	full, err := simulateAll(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatalf("restart after degraded sweep: %v", err)
	}
	for i := range reference {
		if !reflect.DeepEqual(full[i].Stats, reference[i].Stats) {
			t.Fatalf("region %d stats differ after partial resume", i)
		}
	}
}

func simJournals(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".sim.progress") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return files
}
