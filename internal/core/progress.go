package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"looppoint/internal/artifact"
	"looppoint/internal/dcfg"
	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
)

// Durable analysis progress (crash-only workers): one recovery point, two
// rungs. With Config.ProgressDir set, Analyze publishes both products of
// the recording run the moment it ends, before the BBV pass reads the
// block-event log: the pinball in its own checksummed envelope
// (<key>.pinball) and then the finished DCFG (<key>.graph, a checksummed
// JSON record carrying the recording's length). Both are named by the
// analysis's content address (analysisKey), so a job finds exactly the
// recovery point of its own program and knobs, and no file carries a
// header, fingerprint or version to compare. Every later pass is a
// deterministic function of that pair, so a worker SIGKILLed after the
// recording resumes from it without recording again: the restart loads and
// validates the pair and feeds a fresh Collector — configured exactly as a
// cold run's — from one constrained replay of the pinball, which verifies
// the recording's final memory checksum. The resumed profile is
// byte-identical to an uninterrupted run's (the analysis identity matrix
// and the kill drills).
//
// Recovery ladder (never wedges a job):
//
//	saved pinball + graph → re-record
//
// Any failure on the top rung — a missing half, a torn write, bit rot, a
// pinball of another program, a graph of another recording, a replay that
// does not end on the recorded checksum — counts a ladder fall and falls
// to recording; a file whose bytes are proven bad is deleted so it cannot
// re-fail every restart, one that merely failed to read is left in place. The graph is written last:
// it is the commit record, and a kill between the two writes leaves a
// pinball nobody resumes from. Saves are best-effort: a failed save
// (injection site "core.progress.save", disk trouble) costs resumability,
// never correctness.

// ProgressStats aggregates durable-progress counters, shared by every
// job that is handed the same instance (the serving layer exposes them
// via /v1/stats). All methods are safe for concurrent use and for nil
// receivers — a nil sink counts nothing.
type ProgressStats struct {
	saves        atomic.Uint64
	saveFailures atomic.Uint64
	recoveries   atomic.Uint64
	stepsSaved   atomic.Uint64
	ladderFalls  atomic.Uint64
}

func (s *ProgressStats) countSave() {
	if s != nil {
		s.saves.Add(1)
	}
}

func (s *ProgressStats) countSaveFailure() {
	if s != nil {
		s.saveFailures.Add(1)
	}
}

func (s *ProgressStats) countRecovery(stepsSaved uint64) {
	if s != nil {
		s.recoveries.Add(1)
		s.stepsSaved.Add(stepsSaved)
	}
}

func (s *ProgressStats) countLadderFall() {
	if s != nil {
		s.ladderFalls.Add(1)
	}
}

// Snapshot returns the current counter values: durable saves (one per
// analysis recovery point, one per stored region), failed saves,
// successful recoveries, the work those recoveries skipped (the schedule
// steps of the recording a resumed analysis did not record again, plus
// instructions of region simulations served from the store), and
// recovery-ladder falls (progress files rejected as torn, corrupt or of
// another program).
func (s *ProgressStats) Snapshot() (saves, saveFailures, recoveries, stepsSaved, ladderFalls uint64) {
	if s == nil {
		return
	}
	return s.saves.Load(), s.saveFailures.Load(), s.recoveries.Load(),
		s.stepsSaved.Load(), s.ladderFalls.Load()
}

// analysisKey is the content address of one analysis: the name both of
// its files start with, and the prefix of every region result it leads to.
// It covers the program's content (isa.Program.Checksum, and its name,
// which the pinball carries) and every knob that shapes the recording or
// the profile. Another program or configuration is simply another key;
// core-analysis/1 tags the schema of what is stored under it.
func analysisKey(prog *isa.Program, cfg *Config) string {
	return artifact.Key(fmt.Sprintf("core-analysis/1|prog=%s|sum=%#x|slice=%d|seed=%d|flow=%d|budget=%d|bias=%v|nospin=%v|varslices=%v",
		prog.Name, prog.Checksum(), cfg.SliceUnit, cfg.Seed,
		cfg.FlowWindow, cfg.MarkerEntryBudget, cfg.HostBias, cfg.NoSpinFilter, cfg.VariableSlices))
}

// graphRecord is the JSON record of <key>.graph: the finished DCFG (loops
// and markers are re-derived from it on resume — they are deterministic
// functions of it) and the length of the recording it was built on.
type graphRecord struct {
	Total uint64 // schedule steps of the recording the graph was built on
	Graph *dcfg.GraphState
}

// progressLog is one job's recovery point: the path its two files share
// and the counters they report to.
type progressLog struct {
	base string // <dir>/<analysisKey>
	ps   *ProgressStats
}

func (dp *progressLog) pinballPath() string { return dp.base + ".pinball" }
func (dp *progressLog) graphPath() string   { return dp.base + ".graph" }

// openProgress returns the job's recovery point, or nil with durable
// progress off.
func openProgress(prog *isa.Program, cfg *Config) *progressLog {
	if cfg.ProgressDir == "" {
		return nil
	}
	return &progressLog{base: filepath.Join(cfg.ProgressDir, analysisKey(prog, cfg)), ps: cfg.Progress}
}

// save publishes the recovery point and counts the outcome. Best-effort: a
// failure costs resumability, never the analysis.
func (dp *progressLog) save(pb *pinball.Pinball, g *dcfg.Graph) {
	if dp == nil {
		return
	}
	if err := dp.publish(pb, g); err != nil {
		dp.ps.countSaveFailure()
		return
	}
	dp.ps.countSave()
}

// publish writes the pinball, then the graph record as a checksummed
// envelope file; the graph is never written without its pinball.
func (dp *progressLog) publish(pb *pinball.Pinball, g *dcfg.Graph) error {
	rec, err := json.Marshal(graphRecord{Total: pb.Schedule.Steps(), Graph: g.State()})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dp.base), 0o755); err != nil {
		return err
	}
	data := pb.AppendBinary(nil)
	if err := saveFault(data); err != nil {
		return err
	}
	if err := artifact.WriteFileDurable(dp.pinballPath(), data); err != nil {
		return err
	}
	return artifact.WriteChecksummedFile(dp.graphPath(), rec, saveFault)
}

// saveFault and loadFault are the fault seams every durable-progress byte
// passes — recovery-point files and region entries alike — on its way to
// and from disk: injection site "core.progress.save" or
// "core.progress.load" can fail the write or read (Transient) or flip
// bytes (Corrupt), which the load-side checksum catches.
func saveFault(b []byte) error { return progressFault("core.progress.save", b) }
func loadFault(b []byte) error { return progressFault("core.progress.load", b) }

func progressFault(site string, b []byte) error {
	if err := faults.Check(site); err != nil {
		return fmt.Errorf("core: %s: %w", site, err)
	}
	faults.CorruptBytes(site, b)
	return nil
}

// resume walks the ladder's top rung and returns the BBV pass it fed, or
// nil when the job must record: silently when no file exists (a cold job),
// otherwise after counting a ladder fall and deleting the blamed file if
// its bytes were proven bad — one that merely failed to read (injected
// Transient, I/O trouble) is left in place.
func (dp *progressLog) resume(prog *isa.Program, cfg *Config) *bbvPass {
	_, pbErr := os.Stat(dp.pinballPath())
	_, gErr := os.Stat(dp.graphPath())
	if errors.Is(pbErr, os.ErrNotExist) && errors.Is(gErr, os.ErrNotExist) {
		return nil
	}
	pass, blamed, err := dp.restore(prog, cfg)
	if err == nil {
		dp.ps.countRecovery(pass.a.Pinball.Schedule.Steps())
		return pass
	}
	dp.ps.countLadderFall()
	if errors.Is(err, artifact.ErrCorrupt) || errors.Is(err, artifact.ErrTruncated) || errors.Is(err, artifact.ErrVersion) {
		_ = os.Remove(blamed) // best-effort: the re-record republishes it anyway
	}
	return nil
}

// restore loads the saved pair, validates it against the program and each
// other, and feeds a fresh collector from one constrained replay of the
// pinball, which verifies the recording's final memory checksum. On failure
// it names the file at fault; validation failures wrap artifact.ErrCorrupt.
func (dp *progressLog) restore(prog *isa.Program, cfg *Config) (*bbvPass, string, error) {
	blamed := dp.pinballPath()
	corrupt := func(err error) error {
		return fmt.Errorf("core: progress file %s: %v: %w", blamed, err, artifact.ErrCorrupt)
	}
	data, err := os.ReadFile(blamed)
	if err == nil {
		err = loadFault(data)
	}
	if err != nil {
		return nil, blamed, err
	}
	pb, err := pinball.Decode(data)
	if err != nil {
		return nil, blamed, err
	}
	if pb.Name != prog.Name || pb.NumThreads != prog.NumThreads() {
		return nil, blamed, corrupt(fmt.Errorf("records %s on %d threads", pb.Name, pb.NumThreads))
	}
	if err := pb.Verify(); err != nil {
		return nil, blamed, err
	}

	blamed = dp.graphPath()
	rec, err := artifact.ReadChecksummedFile(blamed, loadFault)
	if err != nil {
		return nil, blamed, err
	}
	var st graphRecord
	if json.Unmarshal(rec, &st) != nil {
		return nil, blamed, corrupt(errors.New("graph record does not parse"))
	}
	if total := pb.Schedule.Steps(); st.Total != total || st.Graph == nil {
		return nil, blamed, corrupt(fmt.Errorf("is the graph of a %d-step recording, not of %d steps", st.Total, total))
	}
	g, err := dcfg.RestoreGraph(prog, st.Graph)
	if err != nil {
		return nil, blamed, corrupt(err)
	}
	pass, err := newBBVPass(prog, cfg, pb, g)
	if err != nil {
		return nil, blamed, corrupt(err)
	}

	// The collector implements exec.BlockObserver, so the replay drives it
	// on the block-batched tier.
	if _, err := pb.Replay(prog, pass.col); err != nil {
		blamed = dp.pinballPath()
		return nil, blamed, corrupt(err)
	}
	return pass, "", nil
}
