package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

// analysisEquals compares everything the analysis derives from the
// recording. Pinball and Config are excluded: the pinball is shared by
// construction and the config legitimately differs in worker knobs.
func analysisEquals(t *testing.T, label string, got, want *Analysis) {
	t.Helper()
	if !reflect.DeepEqual(got.Graph, want.Graph) {
		t.Errorf("%s: DCFG differs (%v vs %v)", label, got.Graph, want.Graph)
	}
	if !reflect.DeepEqual(got.Loops, want.Loops) {
		t.Errorf("%s: loop table differs", label)
	}
	if !reflect.DeepEqual(got.Markers, want.Markers) {
		t.Errorf("%s: markers differ (%v vs %v)", label, got.Markers, want.Markers)
	}
	if !reflect.DeepEqual(got.Profile, want.Profile) {
		t.Errorf("%s: profile differs (%d vs %d regions, totals %d/%d vs %d/%d)",
			label, len(got.Profile.Regions), len(want.Profile.Regions),
			got.Profile.TotalFiltered, got.Profile.TotalICount,
			want.Profile.TotalFiltered, want.Profile.TotalICount)
	}
}

func parallelTestPrograms() map[string]*isa.Program {
	return map[string]*isa.Program{
		"phased-passive": testprog.Phased(4, 10, 150, omp.Passive),
		"phased-active":  testprog.Phased(4, 12, 150, omp.Active),
		"hetero":         testprog.Heterogeneous(4, 10, 120, omp.Passive),
	}
}

// recordFor records the analysis pinball exactly as Analyze does, but
// bare, and builds the reference graph the old way: the per-instruction
// OnInstr oracle driven through a replay of the recording. Every identity
// suite's expectation therefore rests on the oracle, and the paths under
// test (which take their graph from the recording run itself) are checked
// against it.
func recordFor(t *testing.T, p *isa.Program, cfg Config) (*pinball.Pinball, *dcfg.Graph) {
	t.Helper()
	cfg.fill()
	pb, err := pinball.RecordWithOptions(p, cfg.Seed, exec.RunOpts{
		FlowWindow: cfg.FlowWindow, QuantumBias: cfg.HostBias,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := dcfg.NewBuilder(p, p.NumThreads())
	if _, err := pb.Replay(p, exec.ObserverFunc(db.OnInstr)); err != nil {
		t.Fatal(err)
	}
	return pb, db.Graph()
}

// referenceAnalysis is what every route through Analyze must equal: the
// bare recording and the oracle graph of recordFor, profiled by one
// Collector driven per instruction — its OnInstr oracle, the block tier
// hidden behind an ObserverFunc — over a single unbroken replay. Every
// column of the identity matrix is therefore a comparison of the product
// path (block-tier builder riding the recording, block-tier collector in
// replay windows) against the per-instruction reference engines.
func referenceAnalysis(t *testing.T, p *isa.Program, cfg Config) *Analysis {
	t.Helper()
	cfg.fill()
	pb, g := recordFor(t, p, cfg)
	bp, err := newBBVPass(p, &cfg, pb, g, pb.StartCheckpoint(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Replay(p, exec.ObserverFunc(bp.col.OnInstr)); err != nil {
		t.Fatal(err)
	}
	bp.a.Profile = bp.col.Finish()
	return bp.a
}

// identityConfigs are the analysis configurations that change what the
// Collector does, how it is driven, or what interleaving it is driven over;
// all of them reach the durable path.
func identityConfigs() map[string]func(*Config) {
	return map[string]func(*Config){
		"default":        func(*Config) {},
		"nospinfilter":   func(c *Config) { c.NoSpinFilter = true },
		"variableslices": variableSlices,
		"hostbias":       func(c *Config) { c.HostBias = []int{1, 3, 1, 2} },
	}
}

// variableSlices turns variable-length slicing on with a marker budget
// wide enough to admit the inner worker loops: under the default budget
// the test programs keep one marker per timestep, which never offers the
// early-close rule a candidate.
func variableSlices(c *Config) {
	c.VariableSlices = true
	c.MarkerEntryBudget = 1000
}

// killedAtEveryEpoch runs the durable analysis as a worker that is killed
// at every epoch boundary: each incarnation resumes from the newest epoch
// file, gets one more epoch saved, and dies at the save after it — the
// Panic at "core.progress.save" is the in-process stand-in for SIGKILL —
// until one incarnation has so little left that it finishes. Every epoch
// boundary of the run is therefore crossed through the files on disk.
func killedAtEveryEpoch(t *testing.T, p *isa.Program, cfg Config) (*Analysis, int) {
	t.Helper()
	for incarnations := 1; incarnations < 1<<14; incarnations++ {
		if a, killed := crashAnalyze(t, p, cfg, 1); !killed {
			return a, incarnations
		}
	}
	t.Fatal("killed-and-resumed analysis makes no progress")
	return nil, 0
}

// TestAnalyzeIdentityMatrix is the tentpole pin: there is one Collector,
// and however it is fed — from the recording run's block-event log
// (stateless), from a constrained replay cut into durable epochs run cold,
// or from such epochs with the worker killed and resumed from disk at every
// single boundary — Profile, Graph, Loops and Markers are DeepEqual to the
// reference built on the OnInstr oracle graph and a per-instruction replay.
// The durable columns are product paths too, so the matrix is a standing
// differential test of log-fed against replay-fed collection. Epoch widths
// cover a boundary exactly on a region-closing marker and one step either
// side (the off-by-one cases of close-then-account), widths narrow enough
// that most epochs see no marker at all, primes, the default, a width wider
// than the recording (one epoch), and two drawn from a generator seeded by
// the case's name.
func TestAnalyzeIdentityMatrix(t *testing.T) {
	for name, p := range parallelTestPrograms() {
		for cname, mutate := range identityConfigs() {
			t.Run(name+"/"+cname, func(t *testing.T) {
				cfg := testConfig()
				mutate(&cfg)
				want := referenceAnalysis(t, p, cfg)
				if len(want.Profile.Regions) < 2 {
					t.Fatal("need at least two regions for the boundary cases")
				}
				if cfg.VariableSlices {
					fixed := cfg
					fixed.VariableSlices = false
					if len(referenceAnalysis(t, p, fixed).Profile.Regions) == len(want.Profile.Regions) {
						t.Fatal("variable slicing closed no region early; this case proves nothing")
					}
				}

				got, err := Analyze(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				analysisEquals(t, "stateless", got, want)

				// The global unfiltered count doubles as the schedule step
				// offset, so a region's EndICount IS an epoch boundary on
				// its closing marker.
				end := want.Profile.Regions[0].EndICount
				total := want.Pinball.Schedule.Steps()
				widths := []uint64{0, end, end - 1, end + 1, 509, 1021, total / 3, total + 1000}
				// Random widths stay above total/40: every epoch of the
				// killed route is a process lifetime and an fsync.
				rng := rand.New(rand.NewSource(int64(artifact.Checksum([]byte(name + cname)))))
				for i := 0; i < 2; i++ {
					widths = append(widths, total/40+uint64(rng.Int63n(int64(total/2))))
				}
				if name == "phased-passive" && cname == "default" {
					// ~1000 epochs, each a process lifetime on the killed
					// route: once is enough (bbv pins width 64 with a
					// restore at every boundary on every configuration).
					widths = append(widths, 64)
				}
				for _, every := range widths {
					label := fmt.Sprintf("every=%d", every)
					cold := durableConfig(t.TempDir())
					mutate(&cold)
					cold.ProgressEvery = every
					got, err := Analyze(p, cold)
					if err != nil {
						t.Fatalf("%s cold: %v", label, err)
					}
					analysisEquals(t, label+" cold", got, want)
					saves, fails, recov, _, _ := cold.Progress.Snapshot()
					if saves < 2 || fails != 0 || recov != 0 {
						t.Fatalf("%s cold: saves=%d fails=%d recoveries=%d; the durable route did not run clean", label, saves, fails, recov)
					}

					killed := durableConfig(t.TempDir())
					mutate(&killed)
					killed.ProgressEvery = every
					got, incarnations := killedAtEveryEpoch(t, p, killed)
					analysisEquals(t, label+" killed at every epoch", got, want)
					// One incarnation per save of the cold run, each but the
					// first starting from a recovered epoch.
					if _, _, recov, _, _ := killed.Progress.Snapshot(); uint64(incarnations) != saves || recov != saves-1 {
						t.Fatalf("%s: %d incarnations made %d recoveries over a %d-save run", label, incarnations, recov, saves)
					}
				}
			})
		}
	}
}

// TestIdentityMatrixCoversZeroMarkerEpochs verifies the narrow widths of
// the identity matrix really do produce epochs in which no marker fires,
// so carrying an untouched close rule across a boundary is genuinely
// covered.
func TestIdentityMatrixCoversZeroMarkerEpochs(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := testConfig()
	cfg.fill()
	pb, g := recordFor(t, p, cfg)
	bp, err := newBBVPass(p, &cfg, pb, g, pb.StartCheckpoint(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hits := func() (n uint64) {
		for _, c := range bp.col.State().MarkerCounts {
			n += c
		}
		return n
	}
	empty, epochs := 0, 0
	for total := pb.Schedule.Steps(); bp.ck.Step < total; epochs++ {
		before := hits()
		if bp.ck, err = pb.ReplayWindow(p, bp.ck, 509, bp.col); err != nil {
			t.Fatal(err)
		}
		if hits() == before {
			empty++
		}
	}
	if empty == 0 {
		t.Fatalf("no zero-marker epoch among %d at width 509; the identity matrix is not covering that case", epochs)
	}
}

// TestBBVPassVerifiesFinalChecksum: a recording whose final memory
// checksum is wrong fails the replay-fed BBV pass whether it is replayed as
// one window or as many epochs — the check Pinball.Replay always makes. (The
// stateless pass reads the recording run's own event log and replays
// nothing, so it has no final state to check.)
func TestBBVPassVerifiesFinalChecksum(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	for _, every := range []uint64{1 << 40, 2048} {
		cfg := testConfig()
		cfg.fill()
		cfg.ProgressDir, cfg.ProgressEvery = t.TempDir(), every
		dp, err := openProgress(p, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		pb, g := recordFor(t, p, cfg)
		pb.FinalChecksum ^= 1
		bp, err := newBBVPass(p, &cfg, pb, g, pb.StartCheckpoint(), nil)
		if err != nil {
			t.Fatal(err)
		}
		dp.begin(bp)
		if _, err := bp.run(dp); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("every=%d: BBV pass over a recording with a wrong final checksum returned %v", every, err)
		}
		if every == 2048 && bp.ck.Step == 0 {
			t.Fatal("the many-window route failed before its last window")
		}
	}
}

// TestAnalyzePublicMatchesOracle pins the public entry point's recording:
// attaching the DCFG builder to the recording machine leaves the pinball
// byte-identical to a bare recording.
func TestAnalyzePublicMatchesOracle(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	pb, _ := recordFor(t, p, testConfig())
	got, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	analysisEquals(t, "public", got, referenceAnalysis(t, p, testConfig()))
	if !bytes.Equal(got.Pinball.AppendBinary(nil), pb.AppendBinary(nil)) {
		t.Fatal("recording with the DCFG builder attached differs from a bare recording")
	}
}

// TestStatelessAnalyzeReplaysNothing pins that a stateless Analyze executes
// the program once. Executions are counted by what each one must allocate:
// a machine's memory and one snapshot of it (the recording's start, a replay
// window's end), on a program given 8 MB of memory so that nothing else
// Analyze allocates comes near one of those. The recording costs two such
// blocks; a replay would cost two more — which the durable route, run as one
// window, is shown to do.
func TestStatelessAnalyzeReplaysNothing(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	p.MemWords += 1 << 20
	machine := p.MemWords * 8
	allocated := func(cfg Config) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Analyze(p, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if got := allocated(testConfig()); got < 2*machine || got >= 3*machine {
		t.Errorf("stateless Analyze allocated %d bytes, %.2f machine memories; want the recording's two and no replay's",
			got, float64(got)/float64(machine))
	}
	durable := durableConfig(t.TempDir())
	durable.ProgressEvery = 1 << 40
	if got := allocated(durable); got < 4*machine {
		t.Errorf("one-window durable Analyze allocated %d bytes, %.2f machine memories; the count cannot see a replay",
			got, float64(got)/float64(machine))
	}
}
