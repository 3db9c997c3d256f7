package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"looppoint/internal/artifact"
	"looppoint/internal/exec"
	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
)

// Durable analysis progress (crash-only workers): one recovery point, two
// files. With Config.ProgressDir set, Analyze publishes the recording run's
// two products the moment it ends, before its block-event log is read:
// the pinball in its own checksummed envelope (<key>.pinball) and then the
// log itself (<key>.log, exec.BlockLog.AppendBinary: the records and an
// FNV-1a trailer). Both are named by the analysis's content address
// (analysisKey), so a job finds exactly the recovery point of its own
// program and knobs, and no file carries a header, fingerprint or version to
// compare. The DCFG and the profile are deterministic functions of the log,
// so a worker SIGKILLed after the recording resumes from the pair without
// executing the program again: the restart loads both, checks the log
// against the program and the pinball's schedule (exec.DecodeBlockLog), and
// Analyze reads it as a cold run reads its own: into a fresh dcfg.Builder,
// then into a collector configured from that graph. The resumed profile is
// byte-identical to an uninterrupted run's (the analysis identity matrix
// and the kill drills).
//
// Recovery ladder (never wedges a job):
//
//	saved pinball + log → re-record
//
// Any failure on the top rung — a missing half, a torn write, bit rot, a
// pinball of another program, a log of another recording (a block, thread
// or count no event of this program has, or an interleaving that is not the
// pinball's schedule) — counts a ladder fall and falls to recording; a file
// whose bytes are proven bad is deleted so it cannot re-fail every restart,
// one that merely failed to read is left in place. The log is written last:
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
// steps of the recording a resumed analysis did not execute again, plus
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

// progressLog is one job's recovery point: the path its two files share
// and the counters they report to.
type progressLog struct {
	base string // <dir>/<analysisKey>
	ps   *ProgressStats
}

func (dp *progressLog) pinballPath() string { return dp.base + ".pinball" }
func (dp *progressLog) logPath() string     { return dp.base + ".log" }

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
func (dp *progressLog) save(pb *pinball.Pinball, log *exec.BlockLog) {
	if dp == nil {
		return
	}
	if err := dp.publish(pb, log); err != nil {
		dp.ps.countSaveFailure()
		return
	}
	dp.ps.countSave()
}

// publish writes the pinball, then the log; the log is never written
// without its pinball.
func (dp *progressLog) publish(pb *pinball.Pinball, log *exec.BlockLog) error {
	if err := os.MkdirAll(filepath.Dir(dp.base), 0o755); err != nil {
		return err
	}
	write := func(path string, data []byte) error {
		if err := saveFault(data); err != nil {
			return err
		}
		return artifact.WriteFileDurable(path, data)
	}
	if err := write(dp.pinballPath(), pb.AppendBinary(nil)); err != nil {
		return err
	}
	return write(dp.logPath(), log.AppendBinary(nil))
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

// resume walks the ladder's top rung and returns the saved recording and
// its log, or nils when the job must record: silently when no file exists
// (a cold job), otherwise after counting a ladder fall and deleting the
// blamed file if its bytes were proven bad — one that merely failed to
// read (injected Transient, I/O trouble) is left in place. A nil dp has
// nothing to resume.
func (dp *progressLog) resume(prog *isa.Program) (*pinball.Pinball, *exec.BlockLog) {
	if dp == nil {
		return nil, nil
	}
	_, pbErr := os.Stat(dp.pinballPath())
	_, logErr := os.Stat(dp.logPath())
	if errors.Is(pbErr, os.ErrNotExist) && errors.Is(logErr, os.ErrNotExist) {
		return nil, nil
	}
	pb, log, blamed, err := dp.restore(prog)
	if err == nil {
		dp.ps.countRecovery(pb.Schedule.Steps())
		return pb, log
	}
	dp.ps.countLadderFall()
	if errors.Is(err, artifact.ErrCorrupt) || errors.Is(err, artifact.ErrTruncated) || errors.Is(err, artifact.ErrVersion) {
		_ = os.Remove(blamed) // best-effort: the re-record republishes it anyway
	}
	return nil, nil
}

// restore loads the saved pair and checks the log against the program and
// the pinball's schedule. On failure it names the file at fault;
// validation failures wrap artifact.ErrCorrupt.
func (dp *progressLog) restore(prog *isa.Program) (*pinball.Pinball, *exec.BlockLog, string, error) {
	read := func(path string) ([]byte, error) {
		data, err := os.ReadFile(path)
		if err == nil {
			err = loadFault(data)
		}
		return data, err
	}
	blamed := dp.pinballPath()
	data, err := read(blamed)
	if err != nil {
		return nil, nil, blamed, err
	}
	pb, err := pinball.Decode(data)
	if err != nil {
		return nil, nil, blamed, err
	}
	if pb.Name != prog.Name || pb.NumThreads != prog.NumThreads() {
		return nil, nil, blamed, fmt.Errorf("core: progress file %s records %s on %d threads: %w", blamed, pb.Name, pb.NumThreads, artifact.ErrCorrupt)
	}
	if err := pb.Verify(); err != nil {
		return nil, nil, blamed, err
	}

	blamed = dp.logPath()
	if data, err = read(blamed); err != nil {
		return nil, nil, blamed, err
	}
	log, err := exec.DecodeBlockLog(prog, pb.Schedule, data)
	if err != nil {
		return nil, nil, blamed, err
	}
	return pb, log, "", nil
}
