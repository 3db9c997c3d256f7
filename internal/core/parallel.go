package core

import (
	"context"
	"fmt"

	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
	"looppoint/internal/pool"
)

// Checkpoint-parallel analysis front-end. The DCFG arrives finished from
// the recording run; what shards here is the BBV pass. The recording is
// swept once to capture snapshots at deterministic step boundaries; each
// shard of the schedule then replays independently from its checkpoint as
// scan → decide → accumulate (bbv.Scanner / Decider / Accumulator): the
// cheap close-rule decisions chain serially in shard order while the
// expensive vector accumulation of decided shards overlaps the scanning
// of later ones.
//
// That is three walks of the recording (sweep, scan, accumulate) against
// the serial path's one, so the front-end only pays off with enough idle
// cores to hide two of them; fusing the walks is ROADMAP item 2.
//
// Boundaries are derived from the recording alone (CheckpointEvery, or a
// deterministic default from the schedule length), never from the worker
// count — so the profile is invariant across -j widths by construction
// and byte-identical to the serial path by the shard merge rules, both
// pinned by the analyze identity suite.

const (
	// defaultShards is how many shards the recording splits into when
	// CheckpointEvery is unset.
	defaultShards = 16
	// minShardSteps keeps auto-sharding from slicing short recordings
	// into windows smaller than the checkpoint overhead is worth.
	minShardSteps = 4096
)

// shardEvery returns the checkpoint interval: the configured value, or a
// deterministic function of the recording length only.
func shardEvery(cfg *Config, total uint64) uint64 {
	if cfg.CheckpointEvery > 0 {
		return cfg.CheckpointEvery
	}
	every := total / defaultShards
	if every < minShardSteps {
		every = minShardSteps
	}
	return every
}

// analyzeParallel profiles the recording with checkpoint-parallel replay
// shards. Any error (including injected shard faults) makes Analyze fall
// back to analyzeSerial on the same recording; the identity tests call
// this function directly so the fallback can never mask a divergence.
func analyzeParallel(prog *isa.Program, cfg Config, pb *pinball.Pinball, g *dcfg.Graph) (*Analysis, error) {
	loops, markers, modulus, err := markersAndModulus(prog, &cfg, pb, g)
	if err != nil {
		return nil, err
	}

	total := pb.Schedule.Steps()
	cks, err := pb.Checkpoints(prog, shardEvery(&cfg, total))
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint sweep of %s: %w", prog.Name, err)
	}
	nshards := len(cks)
	width := func(k int) uint64 {
		if k < nshards-1 {
			return cks[k+1].Step - cks[k].Step
		}
		return total - cks[k].Step
	}
	opts := pool.Options{Width: cfg.AnalyzeWorkers}
	ctx := context.Background()

	// BBV scan and accumulate, pipelined over one pool sweep of
	// 2×nshards items (scans first, then accumulates — the pool claims
	// items in index order). A decider goroutine consumes scans in shard
	// order and publishes each shard's close decisions the moment they
	// are known, so accumulation of shard k needs only scans 0..k, not
	// the whole scan pass.
	scanCh := make([]chan *bbv.ShardScan, nshards)
	decCh := make([]chan []bbv.CloseAt, nshards)
	for k := range scanCh {
		scanCh[k] = make(chan *bbv.ShardScan, 1)
		decCh[k] = make(chan []bbv.CloseAt, 1)
	}
	decider := bbv.NewDecider(sliceTargetFor(prog, &cfg), modulus)
	stop := make(chan struct{})
	deciderDone := make(chan struct{})
	go func() {
		defer close(deciderDone)
		for k := 0; k < nshards; k++ {
			select {
			case sc := <-scanCh[k]:
				if sc == nil {
					return // that scan failed; the pool is cancelling
				}
				decCh[k] <- decider.Feed(sc)
			case <-stop:
				return
			}
		}
	}()

	pieces := make([][]bbv.Piece, nshards)
	_, err = pool.RunWith(ctx, 2*nshards, opts, func(ctx context.Context, i int) error {
		if err := faults.Check("core.analyze.shard"); err != nil {
			if i < nshards {
				scanCh[i] <- nil
			}
			return err
		}
		if i < nshards {
			sc := bbv.NewScanner(markers, cfg.NoSpinFilter)
			if _, err := pb.ReplayWindow(prog, cks[i], width(i), sc); err != nil {
				scanCh[i] <- nil
				return err
			}
			scanCh[i] <- sc.Scan()
			return nil
		}
		k := i - nshards
		var closes []bbv.CloseAt
		select {
		case closes = <-decCh[k]:
		case <-ctx.Done():
			return ctx.Err()
		}
		events := make([]int, len(closes))
		for j, c := range closes {
			events[j] = c.Event
		}
		ac := bbv.NewAccumulator(prog, markers, events, cfg.NoSpinFilter)
		if _, err := pb.ReplayWindow(prog, cks[k], width(k), ac); err != nil {
			return err
		}
		pieces[k] = ac.Pieces()
		return nil
	})
	close(stop)
	<-deciderDone
	if err != nil {
		return nil, fmt.Errorf("core: BBV shard replay of %s: %w", prog.Name, err)
	}

	totFiltered, totICount := decider.Totals()
	prof := bbv.StitchProfile(prog, pieces, decider.Closes(), decider.MarkerCounts(), totFiltered, totICount)
	if len(prof.Regions) == 0 {
		return nil, fmt.Errorf("core: %s produced no regions", prog.Name)
	}
	return &Analysis{
		Prog: prog, Pinball: pb, Graph: g, Loops: loops,
		Markers: markers, Profile: prof, Config: cfg,
	}, nil
}
