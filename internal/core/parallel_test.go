package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/faults"
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

// TestAnalyzeParallelIdentity is the tentpole pin: the checkpoint-
// parallel analysis is identical to the serial reference at every worker
// count and shard width — including a shard width wider than the run
// (degenerates to one serial shard) and a tiny width that produces
// shards with no marker entries at all. analyzeParallel is called
// directly, so the serial fallback cannot mask a divergence.
func TestAnalyzeParallelIdentity(t *testing.T) {
	for name, p := range parallelTestPrograms() {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.fill()
			pb, g := recordFor(t, p, cfg)
			want, err := analyzeSerial(p, cfg, pb, g)
			if err != nil {
				t.Fatal(err)
			}
			total := pb.Schedule.Steps()
			for _, workers := range []int{1, 2, 4, 8} {
				for _, every := range []uint64{0, total / 2, total / 5, total / 13, total + 1000, 512} {
					pcfg := cfg
					pcfg.AnalyzeWorkers = workers
					pcfg.CheckpointEvery = every
					got, err := analyzeParallel(p, pcfg, pb, g)
					if err != nil {
						t.Fatalf("j=%d every=%d: %v", workers, every, err)
					}
					analysisEquals(t, name+" parallel", got, want)
				}
			}
		})
	}
}

// TestAnalyzeParallelBoundaryOnMarker forces checkpoint boundaries to
// land exactly on region-close positions (the marker instruction is the
// last of its shard) and exactly one step before them (the marker is the
// first event of the next shard) — the off-by-one cases of the
// close-then-account ordering.
func TestAnalyzeParallelBoundaryOnMarker(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := testConfig()
	cfg.fill()
	pb, g := recordFor(t, p, cfg)
	want, err := analyzeSerial(p, cfg, pb, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Profile.Regions) < 2 {
		t.Fatal("need at least two regions for boundary cases")
	}
	// The global unfiltered count doubles as the schedule step offset, so
	// a region's EndICount IS a valid checkpoint boundary.
	end := want.Profile.Regions[0].EndICount
	for _, every := range []uint64{end, end - 1, end + 1} {
		pcfg := cfg
		pcfg.AnalyzeWorkers = 2
		pcfg.CheckpointEvery = every
		got, err := analyzeParallel(p, pcfg, pb, g)
		if err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		analysisEquals(t, "boundary-on-marker", got, want)
	}
}

// TestAnalyzeParallelZeroMarkerShards verifies the tiny-shard width used
// in the identity suite really does produce shards with no marker
// entries, so the zero-marker merge path is genuinely covered.
func TestAnalyzeParallelZeroMarkerShards(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := testConfig()
	cfg.fill()
	pb, g := recordFor(t, p, cfg)
	a, err := analyzeSerial(p, cfg, pb, g)
	if err != nil {
		t.Fatal(err)
	}
	cks, err := pb.Checkpoints(p, 512)
	if err != nil {
		t.Fatal(err)
	}
	total := pb.Schedule.Steps()
	empty := 0
	for k, ck := range cks {
		w := total - ck.Step
		if k < len(cks)-1 {
			w = cks[k+1].Step - ck.Step
		}
		sc := bbv.NewScanner(a.Markers, false)
		if _, err := pb.ReplayWindow(p, ck, w, sc); err != nil {
			t.Fatal(err)
		}
		if len(sc.Scan().Events) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatalf("no zero-marker shard among %d shards at width 512; identity suite is not covering that case", len(cks))
	}
}

// TestAnalyzeShardFaultDegradesToSerial arms the core.analyze.shard
// fault site and checks the public Analyze entry point absorbs shard
// failures by re-replaying serially — same analysis, no error.
func TestAnalyzeShardFaultDegradesToSerial(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := testConfig()
	cfg.AnalyzeWorkers = 4
	want, err := Analyze(p, cfg) // no faults armed: parallel path
	if err != nil {
		t.Fatal(err)
	}
	defer faults.Enable(faults.NewPlan(7,
		faults.Rule{Site: "core.analyze.shard", Kind: faults.Transient, Rate: 1}))()
	got, err := Analyze(p, cfg)
	if err != nil {
		t.Fatalf("Analyze with injected shard faults: %v", err)
	}
	analysisEquals(t, "fault-degraded", got, want)
}

// TestAnalyzePublicMatchesOracle pins the public entry point on every
// path it can take: serial, every parallel width, durable (cold), and the
// SlowPath/VariableSlices-forced serial path with workers set. All take
// their graph from the recording run (SlowPath: from the OnInstr
// reference over a replay) and must equal the reference built on the
// oracle graph.
func TestAnalyzePublicMatchesOracle(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	pb, g := recordFor(t, p, testConfig())
	refCfg := testConfig()
	refCfg.fill()
	want, err := analyzeSerial(p, refCfg, pb, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 4, 8} {
		cfg := testConfig()
		cfg.AnalyzeWorkers = workers
		got, err := Analyze(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		analysisEquals(t, fmt.Sprintf("public j=%d", workers), got, want)
		if !bytes.Equal(got.Pinball.AppendBinary(nil), pb.AppendBinary(nil)) {
			t.Fatalf("j=%d: recording with the DCFG builder attached differs from a bare recording", workers)
		}
	}

	dcfg := durableConfig(t.TempDir())
	durable, err := Analyze(p, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	analysisEquals(t, "public durable", durable, want)
	if saves, _, _, _, _ := dcfg.Progress.Snapshot(); saves == 0 {
		t.Fatal("durable Analyze saved no epochs: it fell back to the stateless path")
	}

	slowCfg := testConfig()
	slowCfg.AnalyzeWorkers = 4
	slowCfg.SlowPath = true
	slow, err := Analyze(p, slowCfg)
	if err != nil {
		t.Fatal(err)
	}
	analysisEquals(t, "slowpath-forced-serial", slow, want)
}
