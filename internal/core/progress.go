package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
)

// Durable mid-job progress (crash-only analysis). With Config.ProgressDir
// set, Analyze persists the recording as soon as it exists and then feeds
// the Collector — the same one, configured the same way as a stateless
// run's — from a constrained replay of that recording cut into bounded
// epochs, persisting after every one everything a fresh process needs to
// continue: the replay checkpoint at the window's end (snapshot + syscall
// cursors + step), the finished DCFG the recording run built, and the
// Collector's state. A worker SIGKILLed mid-analysis resumes from its last
// durable epoch instead of re-recording, and the resumed profile is
// byte-identical to an uninterrupted run — pinned by the analysis identity
// matrix and the chaos tests.
//
// Recovery ladder (never wedges a job):
//
//	latest epoch file → next-older epoch file → re-record
//
// Every rung is checksummed and validated before use; a torn write, bit
// rot, a version skew, or a foreign fingerprint just falls to the next
// rung. The bottom rung runs the program again: the graph exists only as
// a product of the recording run (and inside the epoch files), so a saved
// pinball with no usable epoch is not worth a DCFG replay of its own.
// Saves are best-effort: a failed save (injection site
// "core.progress.save", disk trouble) loses at most one epoch of
// progress, never correctness. If the durable run itself errors, Analyze
// falls back to a stateless run on a fresh recording.

// progressVersion is the progress-file format version.
const progressVersion = 3

// progMagic brands durable progress files.
const progMagic = "LOOPPROG"

// progressRetain is how many epoch files are kept per job: the newest
// and one fallback rung for the recovery ladder.
const progressRetain = 2

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

// Snapshot returns the current counter values: durable epoch saves,
// failed saves, successful recoveries, the work those recoveries skipped
// (schedule steps of BBV replay already behind a resumed analysis, plus
// instructions of region simulations served from the journal), and
// recovery-ladder falls (progress files rejected as torn/corrupt/foreign).
func (s *ProgressStats) Snapshot() (saves, saveFailures, recoveries, stepsSaved, ladderFalls uint64) {
	if s == nil {
		return
	}
	return s.saves.Load(), s.saveFailures.Load(), s.recoveries.Load(),
		s.stepsSaved.Load(), s.ladderFalls.Load()
}

// progressState is the JSON carry attached to each epoch's checkpoint:
// the finished DCFG (loops and markers are re-derived from it on resume —
// they are deterministic functions of it) and the Collector between two
// windows. The whole blob lives inside the checksummed progress envelope,
// so torn or flipped bytes are caught before any of it is parsed.
type progressState struct {
	// Job is the file-name stem (progressBase) the epoch was written
	// under: key and configuration fingerprint.
	Job   string
	Epoch int
	Total uint64

	Graph     *dcfg.GraphState
	Collector *bbv.CollectorState
}

func marshalProgressState(st *progressState) ([]byte, error) { return json.Marshal(st) }

func unmarshalProgressState(data []byte) (*progressState, error) {
	st := &progressState{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, err
	}
	return st, nil
}

// progressFingerprint hashes the configuration that determines the
// recording and the profile: two jobs with the same key and fingerprint
// may resume each other's progress; anything else falls the ladder.
func progressFingerprint(prog *isa.Program, cfg *Config) string {
	sig := fmt.Sprintf("v%d|prog=%s|threads=%d|slice=%d|seed=%d|flow=%d|budget=%d|bias=%v|nospin=%v|varslices=%v",
		progressVersion, prog.Name, prog.NumThreads(), cfg.SliceUnit, cfg.Seed,
		cfg.FlowWindow, cfg.MarkerEntryBudget, cfg.HostBias, cfg.NoSpinFilter, cfg.VariableSlices)
	return fmt.Sprintf("%016x", artifact.Checksum([]byte(sig)))
}

// progressBase returns the per-job file-name stem inside the progress
// directory: <key>-<fingerprint>. Every file the durable path writes
// shares this stem, so one job's files never collide with another's and
// a changed configuration starts cleanly instead of mis-resuming.
func progressBase(dir string, prog *isa.Program, cfg *Config) string {
	key := cfg.ProgressKey
	if key == "" {
		key = fmt.Sprintf("%016x", artifact.Checksum([]byte(prog.Name)))
	}
	return filepath.Join(dir, key+"-"+progressFingerprint(prog, cfg))
}

// encodeProgress wraps one epoch's checkpoint and carry state in the
// progress envelope: magic, version, length-prefixed checkpoint envelope
// (pinball.EncodeCheckpoint), length-prefixed JSON state, trailing
// FNV-1a over everything after the magic.
func encodeProgress(ck pinball.Checkpoint, st *progressState) ([]byte, error) {
	ckBytes, err := pinball.EncodeCheckpoint(ck)
	if err != nil {
		return nil, err
	}
	stBytes, err := marshalProgressState(st)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(progMagic)+8+8+len(ckBytes)+8+len(stBytes)+16)
	buf = append(buf, progMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, progressVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ckBytes)))
	buf = append(buf, ckBytes...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(stBytes)))
	buf = append(buf, stBytes...)
	sum := artifact.Update(artifact.FNVOffset, buf[len(progMagic):])
	return binary.LittleEndian.AppendUint64(buf, sum), nil
}

// decodeProgress verifies and unwraps a progress envelope, classifying
// failures into the artifact sentinels for the recovery ladder.
func decodeProgress(data []byte) (pinball.Checkpoint, *progressState, error) {
	var none pinball.Checkpoint
	if len(data) < len(progMagic) {
		return none, nil, fmt.Errorf("core: progress header: %w at byte offset %d", artifact.ErrTruncated, len(data))
	}
	if string(data[:len(progMagic)]) != progMagic {
		return none, nil, fmt.Errorf("core: bad progress magic %q: %w", data[:len(progMagic)], artifact.ErrCorrupt)
	}
	// Integrity first: the payload holds variable-length sections, so a
	// flipped length byte would otherwise send the section reads astray.
	if len(data) < len(progMagic)+8 {
		return none, nil, fmt.Errorf("core: progress integrity hash: %w at byte offset %d", artifact.ErrTruncated, len(data))
	}
	payload := data[len(progMagic) : len(data)-8]
	want := artifact.Update(artifact.FNVOffset, payload)
	if got := binary.LittleEndian.Uint64(data[len(data)-8:]); got != want {
		return none, nil, fmt.Errorf("core: progress integrity hash mismatch (file %#x, computed %#x): %w", got, want, artifact.ErrCorrupt)
	}
	off := 0
	u64 := func() (uint64, bool) {
		if off+8 > len(payload) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(payload[off:])
		off += 8
		return v, true
	}
	v, ok := u64()
	if !ok {
		return none, nil, fmt.Errorf("core: progress version: %w at byte offset %d", artifact.ErrTruncated, len(data))
	}
	if v != progressVersion {
		return none, nil, fmt.Errorf("core: progress version %d (want %d): %w", v, progressVersion, artifact.ErrVersion)
	}
	section := func(name string) ([]byte, error) {
		n, ok := u64()
		if !ok || n > uint64(len(payload)-off) {
			return nil, fmt.Errorf("core: progress %s: %w at byte offset %d", name, artifact.ErrTruncated, len(data))
		}
		s := payload[off : off+int(n)]
		off += int(n)
		return s, nil
	}
	ckBytes, err := section("checkpoint")
	if err != nil {
		return none, nil, err
	}
	stBytes, err := section("state")
	if err != nil {
		return none, nil, err
	}
	ck, err := pinball.DecodeCheckpoint(ckBytes)
	if err != nil {
		return none, nil, err
	}
	st, err := unmarshalProgressState(stBytes)
	if err != nil {
		return none, nil, fmt.Errorf("core: progress state: %v: %w", err, artifact.ErrCorrupt)
	}
	return ck, st, nil
}

// progressPath names one epoch's progress file.
func progressPath(base string, epoch int) string {
	return fmt.Sprintf("%s.e%06d.progress", base, epoch)
}

// saveEpoch persists one epoch durably (temp + fsync + rename). Saves
// are best-effort: any failure — including an injected Transient at site
// "core.progress.save" — is counted and swallowed; the job keeps going
// and at most one epoch of resumability is lost. An injected Corrupt
// flips bytes in the written file, which the load-side checksum catches.
func saveEpoch(base string, ck pinball.Checkpoint, st *progressState, ps *ProgressStats) {
	data, err := encodeProgress(ck, st)
	if err != nil {
		ps.countSaveFailure()
		return
	}
	if err := faults.Check("core.progress.save"); err != nil {
		ps.countSaveFailure()
		return
	}
	faults.CorruptBytes("core.progress.save", data)
	if err := artifact.WriteFileDurable(progressPath(base, st.Epoch), data); err != nil {
		ps.countSaveFailure()
		return
	}
	ps.countSave()
	// Retention: this epoch plus one fallback rung.
	os.Remove(progressPath(base, st.Epoch-progressRetain))
}

// loadEpoch reads and verifies one progress file. Injection site
// "core.progress.load" can fail the read (Transient) or corrupt the
// bytes after they leave disk (Corrupt).
func loadEpoch(path string) (pinball.Checkpoint, *progressState, error) {
	if err := faults.Check("core.progress.load"); err != nil {
		return pinball.Checkpoint{}, nil, fmt.Errorf("core: load progress %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return pinball.Checkpoint{}, nil, err
	}
	faults.CorruptBytes("core.progress.load", data)
	ck, st, err := decodeProgress(data)
	if err != nil {
		return pinball.Checkpoint{}, nil, fmt.Errorf("load %s: %w", path, err)
	}
	return ck, st, nil
}

// progressCandidates lists a job's epoch files newest-first — the
// recovery ladder's rungs. Stray temp files from a crash between write
// and rename never match the ".e<N>.progress" shape, so they are
// ignored by construction.
func progressCandidates(base string) []string {
	dir, stem := filepath.Split(base)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	type cand struct {
		path  string
		epoch int
	}
	var cands []cand
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, stem+".e") || !strings.HasSuffix(name, ".progress") {
			continue
		}
		numeric := strings.TrimSuffix(strings.TrimPrefix(name, stem+".e"), ".progress")
		epoch, err := strconv.Atoi(numeric)
		if err != nil {
			continue
		}
		cands = append(cands, cand{filepath.Join(dir, name), epoch})
	}
	sort.Slice(cands, func(i, k int) bool { return cands[i].epoch > cands[k].epoch })
	paths := make([]string, len(cands))
	for i, c := range cands {
		paths[i] = c.path
	}
	return paths
}

// progressLog is one job's durable-progress files: where they live, how
// wide an epoch is, and the epoch counter.
type progressLog struct {
	base  string // <dir>/<key>-<fingerprint>
	every uint64 // Config.ProgressEvery
	ps    *ProgressStats
	epoch int
	graph *dcfg.GraphState // the graph is finished: one serialization serves every epoch
}

const (
	// defaultEpochs is how many epochs the recording splits into when
	// ProgressEvery is unset.
	defaultEpochs = 16
	// minEpochSteps keeps the default from slicing short recordings into
	// windows smaller than a save is worth.
	minEpochSteps = 4096
)

func openProgress(prog *isa.Program, cfg *Config) (*progressLog, error) {
	if err := os.MkdirAll(cfg.ProgressDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: progress dir: %w", err)
	}
	return &progressLog{
		base:  progressBase(cfg.ProgressDir, prog, cfg),
		every: cfg.ProgressEvery,
		ps:    cfg.Progress,
	}, nil
}

// epochSteps returns the replay-window width: the configured epoch width
// or a default derived from the recording length only.
func (dp *progressLog) epochSteps(total uint64) uint64 {
	if dp.every > 0 {
		return dp.every
	}
	return max(total/defaultEpochs, minEpochSteps)
}

// resume takes both products of the recording run — the saved pinball,
// and its graph out of an epoch file — and walks the recovery ladder:
// newest epoch file first, falling to older rungs on any load or
// validation failure, nil when there is nothing usable (re-record: the
// recording is deterministic in the fingerprinted config, so a missing,
// torn or foreign file of either kind costs no more than that). A rung
// whose bytes are bad (torn, corrupt, version-skewed) is deleted so it
// cannot re-fail every future restart; a rung that merely failed to read
// (injected Transient, I/O trouble) is left in place.
func (dp *progressLog) resume(prog *isa.Program, cfg *Config) *bbvPass {
	pb, err := pinball.Load(dp.base + ".pinball")
	if err != nil || pb.Name != prog.Name || pb.Verify() != nil {
		return nil
	}
	for _, path := range progressCandidates(dp.base) {
		bp, err := dp.restoreRung(prog, cfg, pb, path)
		if err != nil {
			if !errors.Is(err, faults.ErrInjected) {
				os.Remove(path)
			}
			dp.ps.countLadderFall()
			continue
		}
		dp.ps.countRecovery(bp.ck.Step)
		return bp
	}
	return nil
}

// restoreRung loads one epoch file and restores it into a live pass,
// validating everything against the program and recording first.
func (dp *progressLog) restoreRung(prog *isa.Program, cfg *Config, pb *pinball.Pinball, path string) (*bbvPass, error) {
	ck, st, err := loadEpoch(path)
	if err != nil {
		return nil, err
	}
	corrupt := func(err error) error {
		return fmt.Errorf("core: progress file %s: %v: %w", path, err, artifact.ErrCorrupt)
	}
	if job := filepath.Base(dp.base); st.Job != job {
		return nil, corrupt(fmt.Errorf("belongs to job %s, not %s", st.Job, job))
	}
	if total := pb.Schedule.Steps(); st.Total != total || ck.Step > total {
		return nil, corrupt(fmt.Errorf("positions step %d of %d in a %d-step recording", ck.Step, st.Total, total))
	}
	if len(ck.Snap.Threads) != prog.NumThreads() || len(ck.SysPos) != len(pb.Syscalls) {
		return nil, corrupt(errors.New("snapshot shape mismatch"))
	}
	if st.Graph == nil || st.Collector == nil {
		return nil, corrupt(errors.New("missing its graph or collector"))
	}
	g, err := dcfg.RestoreGraph(prog, st.Graph)
	if err != nil {
		return nil, corrupt(err)
	}
	bp, err := newBBVPass(prog, cfg, pb, g, ck, st.Collector)
	if err != nil {
		return nil, corrupt(err)
	}
	dp.epoch, dp.graph = st.Epoch, st.Graph
	return bp, nil
}

// begin makes a fresh recording durable: the pinball, then a step-0
// epoch, so a crash in the first window resumes with the graph instead of
// re-recording for it.
func (dp *progressLog) begin(bp *bbvPass) {
	if err := artifact.WriteFileDurable(dp.base+".pinball", bp.a.Pinball.AppendBinary(nil)); err != nil {
		dp.ps.countSaveFailure() // best-effort: a restart re-records
	}
	dp.graph = bp.a.Graph.State()
	dp.save(bp)
}

// save persists the pass as the next epoch.
func (dp *progressLog) save(bp *bbvPass) {
	dp.epoch++
	saveEpoch(dp.base, bp.ck, &progressState{
		Job: filepath.Base(dp.base), Epoch: dp.epoch, Total: bp.total,
		Graph: dp.graph, Collector: bp.col.State(),
	}, dp.ps)
}
