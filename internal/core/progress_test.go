package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"looppoint/internal/exec"
	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

// durableConfig is testConfig with durable progress aimed at dir and a
// fresh stats sink.
func durableConfig(dir string) Config {
	cfg := testConfig()
	cfg.ProgressDir = dir
	cfg.Progress = &ProgressStats{}
	return cfg
}

// recoveryPoint names the two files of the job's recovery point.
func recoveryPoint(p *isa.Program, cfg Config) (pinballPath, logPath string) {
	cfg.fill()
	dp := openProgress(p, &cfg)
	return dp.pinballPath(), dp.logPath()
}

func exists(t *testing.T, path string) bool {
	t.Helper()
	_, err := os.Stat(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err == nil
}

// crashAnalyze runs a durable Analyze with a one-shot Panic armed at the
// save site — the in-process stand-in for SIGKILL — after `after` of its
// two durable writes, and requires the kill to fire. What was published
// before the kill stays on disk; the write it lands on is lost, exactly
// like a real torn run.
func crashAnalyze(t *testing.T, p *isa.Program, cfg Config, after uint64) {
	t.Helper()
	plan := faults.NewPlan(faults.SeedFromEnv(7),
		faults.Rule{Site: "core.progress.save", Kind: faults.Panic, Rate: 1, Count: 1, After: after})
	defer faults.Enable(plan)()
	defer func() {
		if _, ok := recover().(*faults.Fault); !ok {
			t.Fatalf("kill after %d durable writes never fired", after)
		}
	}()
	Analyze(p, cfg)
}

// TestAnalyzeDurableResumeAfterKill is the chaos drill, at the places a
// kill can differ. Killed at the save site before anything is durable, or
// between the two writes (the pinball is on disk, its commit record — the
// log — is not), the restart records again. Killed once the pair is
// published — recordLog has returned, nothing has read the log —
// the restart records nothing again and reports the recording's whole schedule
// as steps saved. Every restart is byte-identical to the per-instruction
// reference.
func TestAnalyzeDurableResumeAfterKill(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	want := referenceAnalysis(t, p, testConfig())

	restart := func(cfg Config, label string, wantRecoveries, wantFalls uint64) {
		t.Helper()
		cfg.Progress = &ProgressStats{}
		got, err := Analyze(p, cfg)
		if err != nil {
			t.Fatalf("restart after %s: %v", label, err)
		}
		analysisEquals(t, "restart after "+label, got, want)
		saves, _, recoveries, stepsSaved, falls := cfg.Progress.Snapshot()
		if recoveries != wantRecoveries || falls != wantFalls {
			t.Fatalf("%s: recoveries=%d ladder_falls=%d, want %d and %d", label, recoveries, falls, wantRecoveries, wantFalls)
		}
		if wantSteps := wantRecoveries * want.Pinball.Schedule.Steps(); stepsSaved != wantSteps {
			t.Fatalf("%s: recovery saved %d steps, want %d (the recording's schedule)", label, stepsSaved, wantSteps)
		}
		// A restart that recorded publishes a fresh recovery point; one
		// that resumed has nothing new to save.
		if saves != 1-wantRecoveries {
			t.Fatalf("%s: %d saves", label, saves)
		}
	}

	cfg := durableConfig(t.TempDir())
	pbPath, logPath := recoveryPoint(p, cfg)
	crashAnalyze(t, p, cfg, 0)
	if exists(t, pbPath) || exists(t, logPath) {
		t.Fatal("a kill at the first durable write left a file behind")
	}
	restart(cfg, "kill before anything is durable", 0, 0)

	cfg = durableConfig(t.TempDir())
	pbPath, logPath = recoveryPoint(p, cfg)
	crashAnalyze(t, p, cfg, 1)
	if !exists(t, pbPath) || exists(t, logPath) {
		t.Fatal("a kill between the two writes must find the pinball durable and no log: the log is the commit record")
	}
	restart(cfg, "kill between the two writes", 0, 1)

	// The kill after the pair is published: the worker dies holding the
	// log recordLog returned, never read.
	cfg = durableConfig(t.TempDir())
	cfg.fill()
	if _, _, err := recordLog(p, &cfg, openProgress(p, &cfg)); err != nil {
		t.Fatal(err)
	}
	if saves, fails, _, _, _ := cfg.Progress.Snapshot(); saves != 1 || fails != 0 {
		t.Fatalf("saves=%d save_failures=%d once the recording has ended; a kill in the BBV pass must find the pair on disk", saves, fails)
	}
	restart(cfg, "kill before the log is read", 1, 0)
}

// TestAnalyzeDurableCorruptLadderFalls is the corruption matrix over the
// recovery point's two files: whatever is wrong with the pair, the restart
// counts one ladder fall, records again and reproduces the reference
// analysis, and a file whose bytes were proven bad is gone. The restart's
// own saves are failed by injection, so what is on disk afterwards is what
// the ladder left there.
func TestAnalyzeDurableCorruptLadderFalls(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	want := referenceAnalysis(t, p, testConfig())

	mangle := func(t *testing.T, path string, f func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }
	truncate := func(b []byte) []byte { return b[:len(b)*2/3] }

	type damage struct {
		name string
		do   func(t *testing.T, pbPath, logPath string)
		// gone is the suffix of the file the ladder must delete ("" =
		// neither: an orphan's bytes are not proven bad).
		gone string
	}
	const pinballFile, logFile, neither = ".pinball", ".log", ""
	for _, d := range []damage{
		{"pinball truncated", func(t *testing.T, pb, _ string) { mangle(t, pb, truncate) }, pinballFile},
		{"pinball bit flipped", func(t *testing.T, pb, _ string) { mangle(t, pb, flip) }, pinballFile},
		{"log truncated", func(t *testing.T, _, l string) { mangle(t, l, truncate) }, logFile},
		{"log bit flipped", func(t *testing.T, _, l string) { mangle(t, l, flip) }, logFile},
		{"log of another program copied under this key", func(t *testing.T, _, l string) {
			other := testprog.Phased(4, 3, 40, omp.Passive)
			cfg := durableConfig(t.TempDir())
			if _, err := Analyze(other, cfg); err != nil {
				t.Fatal(err)
			}
			_, otherLog := recoveryPoint(other, cfg)
			data, err := os.ReadFile(otherLog)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(l, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, logFile},
		{"log names a block outside the program", func(t *testing.T, pb, l string) {
			resealLog(t, p, pb, l, func(evs []exec.BlockEvent) []exec.BlockEvent {
				outside := *evs[0].Block
				outside.Global = p.NumBlocks()
				evs[0].Block = &outside
				return evs
			})
		}, logFile},
		{"log interleaving unlike the pinball", func(t *testing.T, pb, l string) {
			// Swap the first two neighbouring events of different threads:
			// each thread's own stream stays what it was.
			resealLog(t, p, pb, l, func(evs []exec.BlockEvent) []exec.BlockEvent {
				for i := 1; i < len(evs); i++ {
					if evs[i].Tid != evs[i-1].Tid {
						evs[i-1], evs[i] = evs[i], evs[i-1]
						return evs
					}
				}
				t.Fatal("the log never switches threads")
				return nil
			})
		}, logFile},
		{"log ends short of the pinball", func(t *testing.T, pb, l string) {
			// Drop the last event that retired anything, and what follows
			// it: every record left is one the pinball's schedule runs.
			resealLog(t, p, pb, l, func(evs []exec.BlockEvent) []exec.BlockEvent {
				for i := len(evs) - 1; i >= 0; i-- {
					if evs[i].Instrs > 0 {
						return evs[:i]
					}
				}
				t.Fatal("the log retires nothing")
				return nil
			})
		}, logFile},
		{"pinball of another program", func(t *testing.T, pb, _ string) {
			other, err := pinball.RecordWithOptions(testprog.Phased(4, 3, 40, omp.Passive), 5, exec.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			other.Name = "someone-else"
			if err := os.WriteFile(pb, other.AppendBinary(nil), 0o644); err != nil {
				t.Fatal(err)
			}
		}, pinballFile},
		{"pinball without log", func(t *testing.T, _, l string) { os.Remove(l) }, neither},
		{"log without pinball", func(t *testing.T, pb, _ string) { os.Remove(pb) }, neither},
	} {
		t.Run(d.name, func(t *testing.T) {
			cfg := durableConfig(t.TempDir())
			if _, err := Analyze(p, cfg); err != nil {
				t.Fatal(err)
			}
			pbPath, logPath := recoveryPoint(p, cfg)
			d.do(t, pbPath, logPath)
			// The crash-between-write-and-rename artifact, which loaders
			// must ignore.
			if err := os.WriteFile(logPath+".tmp123", []byte("torn temp write"), 0o644); err != nil {
				t.Fatal(err)
			}
			hadPinball, hadLog := exists(t, pbPath), exists(t, logPath)

			cfg.Progress = &ProgressStats{}
			restore := faults.Enable(faults.NewPlan(faults.SeedFromEnv(3),
				faults.Rule{Site: "core.progress.save", Kind: faults.Transient, Rate: 1}))
			got, err := Analyze(p, cfg)
			restore()
			if err != nil {
				t.Fatalf("restart over damaged recovery point: %v", err)
			}
			analysisEquals(t, "re-recorded", got, want)
			if _, _, recoveries, _, falls := cfg.Progress.Snapshot(); recoveries != 0 || falls != 1 {
				t.Fatalf("recoveries=%d ladder_falls=%d, want 0 and 1", recoveries, falls)
			}
			deleted := func(path string) bool { return d.gone != "" && strings.HasSuffix(path, d.gone) }
			if exists(t, pbPath) != (hadPinball && !deleted(pbPath)) || exists(t, logPath) != (hadLog && !deleted(logPath)) {
				t.Fatalf("after the fall: pinball present=%v log present=%v, want only %q deleted",
					exists(t, pbPath), exists(t, logPath), d.gone)
			}

			// With saves working again the next start is clean: the
			// re-recorded pair replaces whatever was left.
			cfg.Progress = &ProgressStats{}
			if _, err := Analyze(p, cfg); err != nil {
				t.Fatal(err)
			}
			cfg.Progress = &ProgressStats{}
			got, err = Analyze(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			analysisEquals(t, "resumed from the replaced pair", got, want)
			if _, _, recoveries, _, falls := cfg.Progress.Snapshot(); recoveries != 1 || falls != 0 {
				t.Fatalf("after re-publishing: recoveries=%d ladder_falls=%d, want 1 and 0", recoveries, falls)
			}
		})
	}
}

// resealLog rewrites the saved log at logPath as a genuine log would be
// written — checksum and all — with the events edit returns, so the edit
// reaches the checks behind the checksum.
func resealLog(t *testing.T, p *isa.Program, pbPath, logPath string, edit func([]exec.BlockEvent) []exec.BlockEvent) {
	t.Helper()
	pb, err := pinball.Load(pbPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	log, err := exec.DecodeBlockLog(p, pb.Schedule, data)
	if err != nil {
		t.Fatal(err)
	}
	var evs []exec.BlockEvent
	r := log.Reader()
	for {
		rec, _ := r.Records()
		ev := r.Next(rec)
		if ev == nil {
			break
		}
		evs = append(evs, *ev)
	}
	evs = edit(evs)
	resealed := exec.NewBlockLog(p)
	for i := range evs {
		resealed.OnBlock(&evs[i])
	}
	if err := os.WriteFile(logPath, resealed.AppendBinary(nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeDurableSaveFaultNonFatal: every save failing (injected
// Transient) costs resumability, never the analysis itself.
func TestAnalyzeDurableSaveFaultNonFatal(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	want := referenceAnalysis(t, p, testConfig())
	cfg := durableConfig(t.TempDir())
	defer faults.Enable(faults.NewPlan(faults.SeedFromEnv(3),
		faults.Rule{Site: "core.progress.save", Kind: faults.Transient, Rate: 1}))()
	got, err := Analyze(p, cfg)
	if err != nil {
		t.Fatalf("analysis failed under save faults: %v", err)
	}
	analysisEquals(t, "save-faulted", got, want)
	saves, fails, _, _, _ := cfg.Progress.Snapshot()
	if saves != 0 || fails == 0 {
		t.Fatalf("saves=%d fails=%d under a Rate-1 Transient", saves, fails)
	}
	if pbPath, logPath := recoveryPoint(p, cfg); exists(t, pbPath) || exists(t, logPath) {
		t.Fatal("recovery-point files written despite save faults")
	}
}

// TestAnalyzeDurableLoadFaultFallsToZero: a transient load fault means no
// recovery — but the files are NOT deleted (their bytes were never proven
// bad), the job completes by re-recording, and the next restart resumes
// from them.
func TestAnalyzeDurableLoadFaultFallsToZero(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	want := referenceAnalysis(t, p, testConfig())
	cfg := durableConfig(t.TempDir())
	if _, err := Analyze(p, cfg); err != nil {
		t.Fatal(err)
	}
	pbPath, logPath := recoveryPoint(p, cfg)
	// After: 0 faults the pinball's read, After: 1 lets it through and
	// faults the log's.
	for after := uint64(0); after < 2; after++ {
		cfg.Progress = &ProgressStats{}
		restore := faults.Enable(faults.NewPlan(faults.SeedFromEnv(3),
			faults.Rule{Site: "core.progress.load", Kind: faults.Transient, Rate: 1, After: after},
			faults.Rule{Site: "core.progress.save", Kind: faults.Transient, Rate: 1}))
		got, err := Analyze(p, cfg)
		restore()
		if err != nil {
			t.Fatalf("analysis failed under load faults: %v", err)
		}
		analysisEquals(t, "load-faulted", got, want)
		if _, _, recoveries, _, falls := cfg.Progress.Snapshot(); recoveries != 0 || falls != 1 {
			t.Fatalf("recoveries=%d ladder_falls=%d under a load fault on read %d", recoveries, falls, after)
		}
		if !exists(t, pbPath) || !exists(t, logPath) {
			t.Fatalf("a file that merely failed to read (read %d) was deleted", after)
		}
	}
	cfg.Progress = &ProgressStats{}
	if _, err := Analyze(p, cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, recoveries, _, _ := cfg.Progress.Snapshot(); recoveries != 1 {
		t.Fatalf("%d recoveries from the spared files, want 1", recoveries)
	}
}

// TestProgressFingerprintCoversVariableSlices: variable slicing changes
// the profile, so a job must never resume a recovery point written under
// the other setting. Two runs share one progress directory and key,
// differing only in VariableSlices: the second starts clean (no recovery)
// and matches its own stateless run.
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

// TestAnalyzeSameNameProgramsShareProgressDir: a recovery point is named
// by the program's content, not by its name. The passive and active builds
// of one phased program are both "phased-4t"; analysed in turn over one
// progress directory, each afterwards resumes its own recording, falls no
// ladder, and matches its reference analysis.
func TestAnalyzeSameNameProgramsShareProgressDir(t *testing.T) {
	passive := testprog.Phased(4, 10, 150, omp.Passive)
	active := testprog.Phased(4, 10, 150, omp.Active)
	if passive.Name != active.Name {
		t.Fatalf("names %q and %q differ: the test needs one name for two programs", passive.Name, active.Name)
	}
	dir := t.TempDir()
	for _, p := range []*isa.Program{passive, active} {
		if _, err := Analyze(p, durableConfig(dir)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []*isa.Program{passive, active} {
		want := referenceAnalysis(t, p, testConfig())
		cfg := durableConfig(dir)
		got, err := Analyze(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		analysisEquals(t, "resumed "+p.Name, got, want)
		if _, _, recoveries, _, falls := cfg.Progress.Snapshot(); recoveries != 1 || falls != 0 {
			t.Fatalf("re-analysing one of two same-name programs: recoveries=%d ladder_falls=%d, want 1 and 0", recoveries, falls)
		}
	}
}

// TestSimulateRegionsResumeFromJournal: a sweep stores every region; a
// restarted sweep serves all of them from the store — proven by
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
		t.Fatalf("store-resumed sweep failed: %v", err)
	}
	if !reflect.DeepEqual(second, first) {
		t.Fatal("store-resumed results differ from the original sweep")
	}
	saves2, _, recoveries, stepsSaved, _ := cfg.Progress.Snapshot()
	if recoveries == 0 || stepsSaved == 0 {
		t.Fatalf("recoveries=%d stepsSaved=%d after a store resume", recoveries, stepsSaved)
	}
	if saves2 != saves1 {
		t.Fatalf("a fully recovered sweep stored again (%d -> %d saves)", saves1, saves2)
	}
}

// TestSimProgressCorruptLineResimulated: a corrupted region entry is
// deleted and drops its region from recovery; the restarted sweep
// re-simulates exactly that region, stores it again, and the statistics
// still match end to end.
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
	entries := regionEntries(t, dir)
	if len(entries) != len(sel.Points) || len(entries) < 2 {
		t.Fatalf("%d region entries for %d looppoints, want one each and at least 2", len(entries), len(sel.Points))
	}

	// Flip a byte inside one entry's envelope.
	victim := entries[0]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Progress = &ProgressStats{}
	sel.Analysis.Config.Progress = cfg.Progress
	second, err := simulateAll(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != len(first) {
		t.Fatalf("%d results after a corrupt entry, want %d", len(second), len(first))
	}
	for i := range first {
		if !reflect.DeepEqual(second[i].Stats, first[i].Stats) {
			t.Fatalf("region %d stats differ after entry corruption", i)
		}
	}
	saves, _, recoveries, _, _ := cfg.Progress.Snapshot()
	if saves != 1 || recoveries != 1 {
		t.Fatalf("saves=%d recoveries=%d: want exactly the corrupt region re-simulated and the rest served", saves, recoveries)
	}
	if !exists(t, victim) {
		t.Fatal("the re-simulated region was not stored again")
	}
}

// TestSimulateRegionsReusesRegionsAcrossSelections: a region's result is
// named by what it is, not by the selection that asked for it. Two sweeps
// over one analysis and one progress directory select with different
// MaxK: the second serves the regions both selections share from the
// store (one recovery), simulates only the rest, and returns results
// byte-identical to a fresh stateless sweep. Another simulator
// configuration or another seed serves nothing.
func TestSimulateRegionsReusesRegionsAcrossSelections(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := durableConfig(t.TempDir())
	a, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// selectWith re-selects the analysis under another MaxK; withConfig
	// copies a selection onto an analysis under an edited config. Each gets
	// its own progress counters.
	selectWith := func(maxK int) *Selection {
		t.Helper()
		b := *a
		b.Config.MaxK = maxK
		b.Config.Progress = &ProgressStats{}
		sel, err := Select(&b)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	withConfig := func(sel *Selection, edit func(*Config)) *Selection {
		b := *sel.Analysis
		b.Config.Progress = &ProgressStats{}
		edit(&b.Config)
		c := *sel
		c.Analysis = &b
		return &c
	}
	sweep := func(sel *Selection, simCfg timing.Config) []RegionResult {
		t.Helper()
		res, err := simulateAll(sel, simCfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	statsBytes := func(res []RegionResult) []byte {
		t.Helper()
		var all []*timing.Stats
		for _, r := range res {
			all = append(all, r.Stats)
		}
		b, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	small := selectWith(3)
	sweep(small, timing.Gainestown(4))
	large := selectWith(5)
	inSmall := map[int]bool{}
	for _, lp := range small.Points {
		inSmall[lp.Region.Index] = true
	}
	var shared int
	var sharedSteps uint64
	for _, lp := range large.Points {
		if inSmall[lp.Region.Index] {
			shared++
			sharedSteps += lp.Region.UnfilteredLen()
		}
	}
	if shared == 0 || shared == len(large.Points) {
		t.Fatalf("%d of %d regions shared: the two selections do not overlap partially", shared, len(large.Points))
	}

	got := sweep(large, timing.Gainestown(4))
	saves, _, recoveries, stepsSaved, _ := large.Analysis.Config.Progress.Snapshot()
	if recoveries != 1 || stepsSaved != sharedSteps || saves != uint64(len(large.Points)-shared) {
		t.Fatalf("recoveries=%d steps_saved=%d saves=%d; want 1, %d and %d (only the unshared regions simulated)",
			recoveries, stepsSaved, saves, sharedSteps, len(large.Points)-shared)
	}
	fresh := withConfig(large, func(c *Config) { c.ProgressDir = "" })
	if want := sweep(fresh, timing.Gainestown(4)); !bytes.Equal(statsBytes(got), statsBytes(want)) {
		t.Fatal("a sweep served partly from the store differs from a fresh one")
	}

	for _, c := range []struct {
		name   string
		sel    *Selection
		simCfg timing.Config
	}{
		{"in-order core", withConfig(large, func(*Config) {}), timing.InOrderConfig(4)},
		{"another seed", withConfig(large, func(c *Config) { c.Seed++ }), timing.Gainestown(4)},
	} {
		sweep(c.sel, c.simCfg)
		if _, _, recoveries, _, _ := c.sel.Analysis.Config.Progress.Snapshot(); recoveries != 0 {
			t.Fatalf("%s: %d recoveries, want none", c.name, recoveries)
		}
	}
}

// regionEntries lists the region-result store entries in dir.
func regionEntries(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}
