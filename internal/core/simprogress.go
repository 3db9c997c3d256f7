package core

import (
	"fmt"
	"time"

	"looppoint/internal/artifact"
	"looppoint/internal/pinball"
	"looppoint/internal/timing"
)

// Durable region results. With Config.ProgressDir set, every completed
// region's statistics become one entry of the artifact.Store in that
// directory, stored durably before the result is used and keyed by
// everything that determines them (regionKey). A sweep serves every
// region the store holds — including its recorded host time, so speedup
// accounting stays deterministic — and simulates only the rest: a killed
// sweep restarted resumes where it stopped, and a sweep over another
// selection of the same analysis (another MaxK) reuses every region the
// two share. Entries pass the "core.progress.save"/"core.progress.load"
// fault sites shared with the analysis recovery point: saves are
// best-effort, and a failed load simulates.

// regionEntry is one stored region result. The looppoint itself is not
// stored — the sweep's own selection provides it; only the simulated
// statistics and host time carry over.
type regionEntry struct {
	Stats      *timing.Stats `json:"stats"`
	HostTimeNS int64         `json:"host_time_ns"`
}

// regionKey names one region's result: the analysis it belongs to
// (analysisKey — the program and every analysis knob), the region's bounds
// and warm-up start, the simulator configuration, the seed, and the warm-up
// and region-sim modes. The selection the region belongs to, and its
// engine, are not part of it.
func regionKey(analysis string, spec pinball.RegionSpec, simCfg timing.Config, cfg *Config) string {
	return artifact.Key(fmt.Sprintf("core-region/1|%s|warm=%d|start=%d|end=%d|sim=%+v|seed=%d|warmup=%d|mode=%d",
		analysis, spec.WarmupStartStep, spec.StartStep, spec.EndStep, simCfg, cfg.Seed, cfg.Warmup, cfg.RegionSim))
}

// regionStore is one sweep's view of the store: the key of every
// looppoint and the results the store already held when the sweep began.
// All methods are safe for concurrent use (the sweep fans out) and for nil
// receivers — a nil store records and recovers nothing.
type regionStore struct {
	st        *artifact.Store[regionEntry]
	keys      []string
	recovered []*RegionResult
	ps        *ProgressStats
}

// openRegionStore opens the store under the progress directory and looks
// up every looppoint, counting one recovery when any is served. A store
// that cannot be opened degrades to none — durable progress never wedges
// a sweep.
func openRegionStore(sel *Selection, simCfg timing.Config) *regionStore {
	a := sel.Analysis
	cfg := a.Config
	if cfg.ProgressDir == "" || a.Prog == nil {
		return nil
	}
	st, err := artifact.NewStore(cfg.ProgressDir, func(_ string, e *regionEntry) bool { return e.Stats != nil })
	if err != nil {
		return nil
	}
	rs := &regionStore{
		st:        st,
		keys:      make([]string, len(sel.Points)),
		recovered: make([]*RegionResult, len(sel.Points)),
		ps:        cfg.Progress,
	}
	analysis := analysisKey(a.Prog, &cfg)
	var served int
	var stepsSaved uint64
	for i, spec := range sel.RegionSpecs() {
		rs.keys[i] = regionKey(analysis, spec, simCfg, &cfg)
		if e, ok := st.Get(rs.keys[i]); ok {
			lp := sel.Points[i]
			rs.recovered[i] = &RegionResult{Point: lp, Stats: e.Stats, HostTime: time.Duration(e.HostTimeNS)}
			served++
			stepsSaved += lp.Region.UnfilteredLen()
		}
	}
	if served > 0 {
		rs.ps.countRecovery(stepsSaved)
	}
	return rs
}

// lookup serves a recovered region, if the store had it.
func (rs *regionStore) lookup(i int) (RegionResult, bool) {
	if rs == nil || rs.recovered[i] == nil {
		return RegionResult{}, false
	}
	return *rs.recovered[i], true
}

// record stores one completed region durably. Best-effort: a failure is
// counted and swallowed; bytes that rot on disk fail the load-side
// checksum.
func (rs *regionStore) record(i int, res RegionResult) {
	if rs == nil {
		return
	}
	if rs.st.Put(rs.keys[i], &regionEntry{Stats: res.Stats, HostTimeNS: int64(res.HostTime)}) != nil {
		rs.ps.countSaveFailure()
		return
	}
	rs.ps.countSave()
}
