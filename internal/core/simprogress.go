package core

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"looppoint/internal/artifact"
	"looppoint/internal/faults"
	"looppoint/internal/timing"
)

// Durable region-simulation progress. With Config.ProgressDir set, the
// fault-tolerant sweep journals every completed region's statistics as
// one checksummed JSONL line (the shared artifact envelope), fsynced
// before the result is used. A killed sweep restarted over the same
// selection and simulator configuration replays nothing it already
// finished: recovered regions are served from the journal — including
// their recorded host time, so speedup accounting stays deterministic —
// and only the remainder is simulated. Torn final lines (SIGKILL
// mid-write) are truncated away on open; lines that fail their checksum
// or belong to a different selection/configuration are skipped. The
// journal shares the "core.progress.save"/"core.progress.load" fault
// sites with the analysis recovery point: saves are best-effort, loads
// fall back to simulating from scratch.

// simRecord is one journaled region result. The looppoint itself is not
// serialized — the restart's own selection provides it (the fingerprint
// pins both selections identical); only the simulated statistics and
// host time carry over.
type simRecord struct {
	Fp         string        `json:"fp"`
	Region     int           `json:"region"`
	Stats      *timing.Stats `json:"stats"`
	HostTimeNS int64         `json:"host_time_ns"`
}

// simFingerprint pins everything that determines a region's simulated
// statistics: the analysis fingerprint, the simulator configuration, the
// warmup/region-sim knobs, and the exact region boundaries of every
// selected looppoint.
func simFingerprint(sel *Selection, simCfg timing.Config) string {
	a := sel.Analysis
	cfg := a.Config
	var bounds []byte
	for _, lp := range sel.Points {
		bounds = fmt.Appendf(bounds, "|%d:%d:%d", lp.Region.Index, lp.Region.StartICount, lp.Region.EndICount)
	}
	sig := fmt.Sprintf("v%d|%s|sim=%+v|warmup=%d|wregions=%d|mode=%d|seed=%d|points=%s",
		progressVersion, progressFingerprint(a.Prog, &cfg), simCfg,
		cfg.Warmup, cfg.WarmupRegions, cfg.RegionSim, cfg.Seed, bounds)
	return fmt.Sprintf("%016x", artifact.Checksum([]byte(sig)))
}

// simProgress is the open journal for one sweep. All methods are safe
// for concurrent use (the sweep fans out) and for nil receivers — a nil
// journal records and recovers nothing.
type simProgress struct {
	fp        string
	ps        *ProgressStats
	recovered map[int]RegionResult
	j         *artifact.Journal // nil when the file could not be opened
}

// openSimProgress opens (creating if needed) the sweep's journal and
// loads every recoverable region result. Any failure to open or read
// degrades to an empty journal — durable progress never wedges a sweep.
func openSimProgress(sel *Selection, simCfg timing.Config) *simProgress {
	a := sel.Analysis
	cfg := a.Config
	if cfg.ProgressDir == "" || a.Prog == nil {
		return nil
	}
	if err := os.MkdirAll(cfg.ProgressDir, 0o755); err != nil {
		return nil
	}
	sp := &simProgress{
		fp:        simFingerprint(sel, simCfg),
		ps:        cfg.Progress,
		recovered: make(map[int]RegionResult),
	}
	path := progressBase(cfg.ProgressDir, a.Prog, &cfg) + ".sim.progress"
	sp.load(path, sel)
	if j, err := artifact.OpenJournal(path); err == nil {
		sp.j = j
	}
	return sp
}

// load reads the journal's valid lines, keeping those that match this
// sweep's fingerprint. Injection site "core.progress.load" can fail the
// read (no recovery, simulate everything) or corrupt the bytes after
// they leave disk (corrupted lines fail their checksums and drop).
func (sp *simProgress) load(path string, sel *Selection) {
	if err := faults.Check("core.progress.load"); err != nil {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	faults.CorruptBytes("core.progress.load", data)
	var stepsSaved uint64
	// Best-effort: bad, foreign and duplicate lines are skipped, and a
	// scan error just ends the recovery early.
	_ = artifact.ScanRecords(data, func(recBytes []byte, ok bool) bool {
		var rec simRecord
		if !ok || json.Unmarshal(recBytes, &rec) != nil || rec.Fp != sp.fp || rec.Stats == nil {
			return true
		}
		if rec.Region < 0 || rec.Region >= len(sel.Points) {
			return true
		}
		if _, dup := sp.recovered[rec.Region]; dup {
			return true
		}
		lp := sel.Points[rec.Region]
		sp.recovered[rec.Region] = RegionResult{
			Point:    lp,
			Stats:    rec.Stats,
			HostTime: time.Duration(rec.HostTimeNS),
		}
		stepsSaved += lp.Region.UnfilteredLen()
		return true
	})
	if len(sp.recovered) > 0 {
		sp.ps.countRecovery(stepsSaved)
	}
}

// lookup serves a recovered region, if the journal has it.
func (sp *simProgress) lookup(i int) (RegionResult, bool) {
	if sp == nil {
		return RegionResult{}, false
	}
	r, ok := sp.recovered[i]
	return r, ok
}

// record journals one completed region durably (checksummed line +
// fsync). Best-effort: failures — including an injected Transient at
// "core.progress.save" — are counted and swallowed; an injected Corrupt
// flips bytes in the line, which the load-side checksum catches.
func (sp *simProgress) record(i int, res RegionResult) {
	if sp == nil {
		return
	}
	rec, err := json.Marshal(simRecord{
		Fp: sp.fp, Region: i, Stats: res.Stats, HostTimeNS: int64(res.HostTime),
	})
	if err != nil {
		sp.ps.countSaveFailure()
		return
	}
	line, err := artifact.ChecksumLine(rec)
	if err != nil {
		sp.ps.countSaveFailure()
		return
	}
	if err := faults.Check("core.progress.save"); err != nil {
		sp.ps.countSaveFailure()
		return
	}
	faults.CorruptBytes("core.progress.save", line)
	if sp.j == nil || sp.j.AppendLine(line) != nil {
		sp.ps.countSaveFailure()
		return
	}
	sp.ps.countSave()
}

// close releases the journal's file handle.
func (sp *simProgress) close() {
	if sp == nil || sp.j == nil {
		return
	}
	sp.j.Close()
}
