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
	"looppoint/internal/exec"
	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
)

// Durable mid-job progress (crash-only analysis). With Config.ProgressDir
// set, Analyze persists the recording as soon as it exists and then runs
// the BBV replay as a sequence of bounded epochs — the same deterministic
// checkpoint boundaries the parallel front-end shards at — persisting,
// after every epoch, everything a fresh process needs to continue: the
// replay checkpoint (snapshot + syscall cursors + step), the finished DCFG
// the recording run built, and the decider and stitcher state of the BBV
// chain. A worker SIGKILLed mid-analysis resumes from its last durable
// epoch instead of re-recording, and the resumed profile is
// byte-identical to an uninterrupted run — pinned by the progress
// identity and chaos tests.
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
// progress, never correctness. If the durable path itself errors,
// Analyze falls back to the stateless pipeline on a fresh recording.

// progressVersion is the progress-file format version.
const progressVersion = 2

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
// they are deterministic functions of it) and the close-decision and
// stitch chain of the BBV replay so far. The whole blob lives inside the
// checksummed progress envelope, so torn or flipped bytes are caught
// before any of it is parsed.
type progressState struct {
	Key         string
	Fingerprint string
	Epoch       int
	Total       uint64
	Every       uint64

	Graph    *dcfg.GraphState
	Decider  *bbv.DeciderState
	Stitcher *bbv.StitcherState
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
	sig := fmt.Sprintf("v%d|prog=%s|threads=%d|slice=%d|seed=%d|flow=%d|budget=%d|bias=%v|nospin=%v",
		progressVersion, prog.Name, prog.NumThreads(), cfg.SliceUnit, cfg.Seed,
		cfg.FlowWindow, cfg.MarkerEntryBudget, cfg.HostBias, cfg.NoSpinFilter)
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

// epochCarry is everything the epoch loop carries from one epoch to the
// next: where the replay stands, and the analysis state at that step. A
// fresh recording starts one at step 0; a validated recovery-ladder rung
// restores one mid-run.
type epochCarry struct {
	ck    pinball.Checkpoint
	epoch int
	g     *dcfg.Graph
	// Deterministic functions of the graph, derived once.
	loops   *dcfg.LoopTable
	markers []uint64
	modulus map[uint64]uint64
	dec     *bbv.Decider
	stitch  *bbv.Stitcher
}

// newEpochCarry derives the loop table and marker set from the finished
// graph and positions the carry at ck. The caller supplies the BBV chain
// state (dec, stitch): fresh at step 0, restored on a rung.
func newEpochCarry(prog *isa.Program, cfg *Config, pb *pinball.Pinball, g *dcfg.Graph, ck pinball.Checkpoint) (*epochCarry, error) {
	loops, markers, modulus, err := markersAndModulus(prog, cfg, pb, g)
	if err != nil {
		return nil, err
	}
	return &epochCarry{ck: ck, g: g, loops: loops, markers: markers, modulus: modulus}, nil
}

// recoverAnalysis walks the recovery ladder: newest epoch file first,
// falling to older rungs on any load or validation failure, nil when
// every rung fails (re-record). A rung whose bytes are bad (torn,
// corrupt, version-skewed) is deleted so it cannot re-fail every future
// restart; a rung that merely failed to read (injected Transient, I/O
// trouble) is left in place.
func recoverAnalysis(prog *isa.Program, cfg *Config, pb *pinball.Pinball, base, key, fp string) *epochCarry {
	ps := cfg.Progress
	for _, path := range progressCandidates(base) {
		c, err := restoreRung(prog, cfg, pb, path, key, fp)
		if err != nil {
			if !errors.Is(err, faults.ErrInjected) {
				os.Remove(path)
			}
			ps.countLadderFall()
			continue
		}
		ps.countRecovery(c.ck.Step)
		return c
	}
	return nil
}

// restoreRung loads one epoch file and restores it into live structures,
// validating everything against the program and recording first.
func restoreRung(prog *isa.Program, cfg *Config, pb *pinball.Pinball, path, key, fp string) (*epochCarry, error) {
	ck, st, err := loadEpoch(path)
	if err != nil {
		return nil, err
	}
	if st.Key != key || st.Fingerprint != fp {
		return nil, fmt.Errorf("core: progress file %s belongs to job %s/%s: %w", path, st.Key, st.Fingerprint, artifact.ErrCorrupt)
	}
	if total := pb.Schedule.Steps(); st.Total != total || ck.Step > total {
		return nil, fmt.Errorf("core: progress file %s positions step %d of %d in a %d-step recording: %w",
			path, ck.Step, st.Total, total, artifact.ErrCorrupt)
	}
	if len(ck.Snap.Threads) != prog.NumThreads() || len(ck.SysPos) != len(pb.Syscalls) {
		return nil, fmt.Errorf("core: progress file %s snapshot shape mismatch: %w", path, artifact.ErrCorrupt)
	}
	if st.Graph == nil || st.Decider == nil || st.Stitcher == nil {
		return nil, fmt.Errorf("core: progress file %s is missing its graph, decider or stitcher: %w", path, artifact.ErrCorrupt)
	}
	g, err := dcfg.RestoreGraph(prog, st.Graph)
	if err != nil {
		return nil, fmt.Errorf("core: progress file %s: %v: %w", path, err, artifact.ErrCorrupt)
	}
	c, err := newEpochCarry(prog, cfg, pb, g, ck)
	if err != nil {
		return nil, fmt.Errorf("core: progress file %s: %v: %w", path, err, artifact.ErrCorrupt)
	}
	c.epoch = st.Epoch
	if c.dec, err = bbv.RestoreDecider(sliceTargetFor(prog, cfg), c.modulus, st.Decider); err != nil {
		return nil, fmt.Errorf("core: progress file %s: %v: %w", path, err, artifact.ErrCorrupt)
	}
	if c.stitch, err = st.Stitcher.RestoreStitcher(prog); err != nil {
		return nil, fmt.Errorf("core: progress file %s: %v: %w", path, err, artifact.ErrCorrupt)
	}
	return c, nil
}

// replayEpoch replays one epoch's window of the schedule from the
// checkpoint with the observer attached, and returns the checkpoint at
// the window's end — the exact carry the next epoch resumes from.
func replayEpoch(prog *isa.Program, pb *pinball.Pinball, from pinball.Checkpoint, steps uint64, obs exec.Observer) (pinball.Checkpoint, error) {
	m, err := pb.ReplayWindow(prog, from, steps, obs)
	if err != nil {
		return pinball.Checkpoint{}, err
	}
	// ReplayWindow positions its machine with ReplayFrom, which installs
	// the replay OS whose cursors are the other half of the checkpoint.
	return pinball.Checkpoint{Snap: m.Snapshot(), SysPos: m.OS.(*exec.ReplayOS).Positions(), Step: from.Step + steps}, nil
}

// analyzeDurable is the crash-only analysis pipeline: resume from the
// saved recording and the newest valid epoch, or record afresh (building
// the graph) and save the recording; then replay the BBV pass in durable
// epochs, persisting a recovery point after every one. The profile is
// byte-identical to the serial and parallel paths (the epoch loop is the
// shard pipeline run serially at ProgressEvery-step boundaries, and
// profiles are invariant under shard widths). Any error returns to
// Analyze, which falls back to the stateless pipeline.
func analyzeDurable(prog *isa.Program, cfg Config) (*Analysis, error) {
	if err := os.MkdirAll(cfg.ProgressDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: progress dir: %w", err)
	}
	base := progressBase(cfg.ProgressDir, prog, &cfg)
	key := cfg.ProgressKey
	if key == "" {
		key = fmt.Sprintf("%016x", artifact.Checksum([]byte(prog.Name)))
	}
	fp := progressFingerprint(prog, &cfg)
	ps := cfg.Progress

	// Resuming takes both products of the recording run: the saved
	// pinball, and its graph out of an epoch file. The recording is
	// deterministic in the fingerprinted config, so a missing, torn or
	// foreign file of either kind just costs a re-record.
	var c *epochCarry
	pb, err := pinball.Load(base + ".pinball")
	if err == nil && pb.Name == prog.Name && pb.Verify() == nil {
		c = recoverAnalysis(prog, &cfg, pb, base, key, fp)
	}
	fresh := c == nil
	if fresh {
		var g *dcfg.Graph
		if pb, g, err = recordWithGraph(prog, &cfg); err != nil {
			return nil, err
		}
		if err := artifact.WriteFileDurable(base+".pinball", pb.AppendBinary(nil)); err != nil {
			ps.countSaveFailure() // best-effort: a restart re-records
		}
		if c, err = newEpochCarry(prog, &cfg, pb, g, pb.StartCheckpoint()); err != nil {
			return nil, err
		}
		c.dec = bbv.NewDecider(sliceTargetFor(prog, &cfg), c.modulus)
		c.stitch = bbv.NewStitcher(prog)
	}

	total := pb.Schedule.Steps()
	every := cfg.ProgressEvery
	if every == 0 {
		every = shardEvery(&cfg, total)
	}
	graphState := c.g.State() // the graph is finished: one serialization serves every epoch
	save := func() {
		c.epoch++
		saveEpoch(base, c.ck, &progressState{
			Key: key, Fingerprint: fp, Epoch: c.epoch, Total: total, Every: every,
			Graph: graphState, Decider: c.dec.State(), Stitcher: c.stitch.State(),
		}, ps)
	}
	if fresh {
		// A step-0 save, so a crash in the first epoch resumes with the
		// graph instead of re-recording for it.
		save()
	}

	// BBV epochs. Scan the window, chain the close decisions, accumulate
	// the window's pieces, stitch — the parallel front-end's scan →
	// decide → accumulate pipeline, one shard at a time.
	for c.ck.Step < total {
		w := every
		if rem := total - c.ck.Step; rem < w {
			w = rem
		}
		sc := bbv.NewScanner(c.markers, cfg.NoSpinFilter)
		if _, err := pb.ReplayWindow(prog, c.ck, w, sc); err != nil {
			return nil, fmt.Errorf("core: BBV scan of %s: %w", prog.Name, err)
		}
		closes := c.dec.Feed(sc.Scan())
		events := make([]int, len(closes))
		for j, cl := range closes {
			events[j] = cl.Event
		}
		ac := bbv.NewAccumulator(prog, c.markers, events, cfg.NoSpinFilter)
		next, err := replayEpoch(prog, pb, c.ck, w, ac)
		if err != nil {
			return nil, fmt.Errorf("core: BBV epoch of %s: %w", prog.Name, err)
		}
		c.stitch.Feed(ac.Pieces(), closes)
		c.ck = next
		save()
	}

	totFiltered, totICount := c.dec.Totals()
	prof := c.stitch.Finish(prog, c.dec.MarkerCounts(), totFiltered, totICount)
	if len(prof.Regions) == 0 {
		return nil, fmt.Errorf("core: %s produced no regions", prog.Name)
	}
	return &Analysis{
		Prog: prog, Pinball: pb, Graph: c.g, Loops: c.loops,
		Markers: c.markers, Profile: prof, Config: cfg,
	}, nil
}
