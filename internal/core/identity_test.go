package core

import (
	"bytes"
	"reflect"
	"runtime"
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
// bare, and builds the reference graph per instruction: a builder fed one
// instruction at a time through a stepReplay of the recording (dcfg's tests
// hold that stream equal to the builder's OnInstr oracle). Every identity
// suite's expectation therefore rests on the per-instruction stream, and
// the paths under test (which take their graph from the recording run
// itself) are checked against it.
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
	stepReplay(t, p, pb, db.OnBlock)
	return pb, db.Graph()
}

// referenceAnalysis is what every route through Analyze must equal: the
// bare recording and the per-instruction graph of recordFor, profiled by
// one Collector driven per instruction over a single unbroken stepReplay
// (bbv's tests hold that stream equal to the collector's OnInstr oracle).
// Every column of the identity matrix is therefore a comparison of the
// product path (block-tier builder riding the recording, block-tier
// collector fed by the event log or a replay) against the per-instruction
// stream.
func referenceAnalysis(t *testing.T, p *isa.Program, cfg Config) *Analysis {
	t.Helper()
	cfg.fill()
	pb, g := recordFor(t, p, cfg)
	a, col, err := newCollector(p, &cfg, pb, g)
	if err != nil {
		t.Fatal(err)
	}
	stepReplay(t, p, pb, col.OnBlock)
	a.Profile = col.Finish()
	return a
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

// TestAnalyzeIdentityMatrix is the tentpole pin: there is one Collector,
// and whichever log feeds it — the recording run's own (stateless, and cold
// with durable progress on), or the one a restart that found the recovery
// point on disk decoded, which also rebuilds the graph — Profile, Graph,
// Loops and Markers are DeepEqual to the reference built on a
// per-instruction replay.
func TestAnalyzeIdentityMatrix(t *testing.T) {
	for name, p := range parallelTestPrograms() {
		for cname, mutate := range identityConfigs() {
			t.Run(name+"/"+cname, func(t *testing.T) {
				cfg := testConfig()
				mutate(&cfg)
				want := referenceAnalysis(t, p, cfg)
				if len(want.Profile.Regions) < 2 {
					t.Fatal("need at least two regions")
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

				durable := durableConfig(t.TempDir())
				mutate(&durable)
				for _, run := range []struct {
					label             string
					saves, recoveries uint64
				}{{"cold durable", 1, 0}, {"resumed from disk", 0, 1}} {
					durable.Progress = &ProgressStats{}
					got, err := Analyze(p, durable)
					if err != nil {
						t.Fatalf("%s: %v", run.label, err)
					}
					analysisEquals(t, run.label, got, want)
					saves, fails, recov, stepsSaved, falls := durable.Progress.Snapshot()
					if saves != run.saves || recov != run.recoveries || fails != 0 || falls != 0 {
						t.Fatalf("%s: saves=%d fails=%d recoveries=%d ladder_falls=%d", run.label, saves, fails, recov, falls)
					}
					if stepsSaved != run.recoveries*want.Pinball.Schedule.Steps() {
						t.Fatalf("%s: %d steps saved over a %d-step recording", run.label, stepsSaved, want.Pinball.Schedule.Steps())
					}
				}
			})
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

// TestStatelessAnalyzeReplaysNothing pins that Analyze executes the program
// once, with durable progress off or on, and that a resume executes nothing:
// it plays the saved block log. Executions are counted by what each one must
// allocate: a machine's memory and one snapshot of it (the recording's
// start), on a program given 8 MB of memory so that nothing else Analyze
// allocates comes near one of those. A cold durable run allocates a third
// such block: the encoded pinball it publishes. A resume allocates two: the
// pinball file it reads and the start snapshot decoded from it; a replay
// would add a third, the machine.
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
	if got := allocated(durable); got < 2*machine || got >= 4*machine {
		t.Errorf("cold durable Analyze allocated %d bytes, %.2f machine memories; want the recording's two, the encoded pinball and no replay's",
			got, float64(got)/float64(machine))
	}
	if got := allocated(durable); got >= 5*machine/2 {
		t.Errorf("resumed Analyze allocated %d bytes, %.2f machine memories; want the pinball file and its decoded snapshot and no machine",
			got, float64(got)/float64(machine))
	}
	if saves, _, recoveries, _, _ := durable.Progress.Snapshot(); saves != 1 || recoveries != 1 {
		t.Fatalf("saves=%d recoveries=%d: the second durable run did not resume", saves, recoveries)
	}
}

// stepReplay replays recording pb of p one instruction at a time —
// StepBlock with a budget of one over the recorded schedule — and hands
// fn every one-instruction event; the replay must end on the recording's
// memory, as Replay checks.
func stepReplay(tb testing.TB, p *isa.Program, pb *pinball.Pinball, fn func(*exec.BlockEvent)) {
	tb.Helper()
	m := exec.NewMachine(p, 0)
	if err := m.Restore(pb.Start); err != nil {
		tb.Fatal(err)
	}
	replay := exec.NewReplayOS(pb.Syscalls)
	m.OS = replay
	var ev exec.BlockEvent
	for _, e := range pb.Schedule {
		for i := uint32(0); i < e.N; i++ {
			if !m.StepBlock(e.Tid, 1, &ev) {
				tb.Fatalf("per-instruction replay: thread %d is %s", e.Tid, m.Threads[e.Tid].State)
			}
			fn(&ev)
		}
	}
	if replay.Diverged {
		tb.Fatal("per-instruction replay exhausted the syscall injection log")
	}
	if got := artifact.ChecksumWords(m.Mem); got != pb.FinalChecksum {
		tb.Fatalf("per-instruction replay ended on memory %#x, the recording on %#x", got, pb.FinalChecksum)
	}
}
