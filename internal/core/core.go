// Package core implements the LoopPoint methodology end to end (paper
// Section III): reproducible whole-program recording, DCFG-based loop
// identification, BBV profiling with spin-loop filtering and loop-entry
// slice boundaries, SimPoint clustering of per-thread-concatenated BBVs,
// representative (looppoint) selection with work multipliers, parallel
// region simulation with warmup, and runtime extrapolation with error
// reporting against the full-application simulation.
package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
	"looppoint/internal/simpoint"
	"looppoint/internal/timing"
)

// Config holds the methodology knobs.
type Config struct {
	// SliceUnit is the per-thread slice size in filtered instructions;
	// the global slice target is N × SliceUnit for an N-threaded program
	// (the paper uses 100 M; this repository's workloads are scaled down
	// by workloads.Scale, so the default here is 100 K).
	SliceUnit uint64
	// MaxK caps the number of clusters (paper: 50).
	MaxK int
	// Seed drives every random choice (projection, k-means, OS model).
	Seed uint64
	// FlowWindow is the flow-control window (in instructions) used while
	// recording and profiling so all threads progress evenly.
	FlowWindow uint64
	// MarkerEntryBudget bounds how many times a marker PC may fire per
	// slice for it to count as a stable region boundary.
	MarkerEntryBudget uint64
	// Warmup selects region-simulation warmup (perfect/functional by default).
	Warmup timing.WarmupMode
	// WarmupRegions is how many preceding regions a checkpoint-driven
	// region simulation warms over (default 2; the paper assumes "a
	// large enough warmup region added to the representative region").
	WarmupRegions int
	// RegionSim selects how looppoints are simulated (checkpoint-driven
	// by default).
	RegionSim RegionSimMode
	// SumBBVs switches to naive summed (rather than concatenated)
	// per-thread BBVs — the ablation of Section III-B's insight.
	SumBBVs bool
	// HostBias emulates an imbalanced host during recording (per-thread
	// scheduling-quantum multipliers). The flow-control window is what
	// keeps a biased host from skewing the profile; the flow-control
	// ablation records with bias and toggles the window.
	HostBias []int
	// NoSpinFilter disables synchronization-library filtering — the
	// ablation corresponding to the naive SimPoint adaptation.
	NoSpinFilter bool
	// VariableSlices enables phase-aligned variable-length slicing
	// (Section III-B's alternative after Lau et al.): regions may close
	// early at a worker-loop entry when the basic-block mix shifts.
	VariableSlices bool
	// ClusterWorkers bounds the worker pool the clustering stage fans out
	// on — the BBV projections and the k=1..MaxK BIC sweep (0 = one
	// worker per CPU, 1 = serial). Selections are byte-identical at every
	// width; only host time changes.
	ClusterWorkers int
	// ProgressDir enables durable progress (crash-only workers): Analyze
	// publishes the recording and its block-event log, checksummed, the
	// moment the recording ends, and region simulation stores every
	// completed region, all under this directory and named by their content
	// (the program's checksum and the analysis knobs). A killed job
	// restarted over the same directory — or any job over the same program
	// and knobs — re-derives its graph and profile from the saved log without
	// executing the program again, byte-identically, and re-simulates only
	// unfinished regions. Empty disables.
	ProgressDir string
	// Progress, when set, receives durable-progress counters — saves,
	// recoveries, steps those recoveries skipped — shared across every job
	// of a server and exposed via /v1/stats.
	Progress *ProgressStats
	// Selector names the selection engine ("simpoint" by default; one of
	// simpoint.SelectorNames). "stratified" draws multiple seeded random
	// representatives per cluster with two-phase budget allocation and
	// makes per-metric confidence intervals estimable.
	Selector string
	// SampleBudget is the total region-draw budget for multi-draw
	// engines (0 = engine default; the medoid engine ignores it).
	SampleBudget int
	// Confidence is the level for extrapolated confidence intervals
	// (0 = simpoint.DefaultConfidence, i.e. 95%).
	Confidence float64
}

// DefaultConfig returns the paper's parameters at this repository's scale.
func DefaultConfig() Config {
	return Config{
		SliceUnit:         100_000,
		MaxK:              simpoint.DefaultMaxK,
		Seed:              42,
		FlowWindow:        4096,
		MarkerEntryBudget: 64,
		Warmup:            timing.WarmupFunctional,
		WarmupRegions:     2,
	}
}

func (c *Config) fill() {
	if c.SliceUnit == 0 {
		c.SliceUnit = 100_000
	}
	if c.MaxK == 0 {
		c.MaxK = simpoint.DefaultMaxK
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.FlowWindow == 0 {
		c.FlowWindow = 4096
	}
	if c.MarkerEntryBudget == 0 {
		c.MarkerEntryBudget = 64
	}
	if c.WarmupRegions == 0 {
		c.WarmupRegions = 2
	}
	if c.Selector == "" {
		c.Selector = "simpoint"
	}
	if c.Confidence == 0 {
		c.Confidence = simpoint.DefaultConfidence
	}
}

// Analysis is the up-front, one-time application analysis (Section III-I):
// the recorded pinball, the DCFG with its loop table, the chosen marker
// set, and the sliced BBV profile.
type Analysis struct {
	Prog    *isa.Program
	Pinball *pinball.Pinball
	Graph   *dcfg.Graph
	Loops   *dcfg.LoopTable
	Markers []uint64
	Profile *bbv.Profile
	Config  Config
}

// Analyze executes the program once: the recording run logs its block
// events (exec.BlockLog), and the analysis reads that log twice — into the
// DCFG builder, and, once the finished graph has named the loop
// boundaries, into a single bbv.Collector, which gathers sliced,
// spin-filtered vectors. With Config.ProgressDir set the pinball and the log
// are published as the job's recovery point before the log is read, and a
// restart that finds them executes nothing again: it decodes the saved log
// (progress.go) and reads it the same way.
func Analyze(prog *isa.Program, cfg Config) (*Analysis, error) {
	cfg.fill()
	dp := openProgress(prog, &cfg)
	pb, log := dp.resume(prog)
	if pb == nil {
		var err error
		if pb, log, err = recordLog(prog, &cfg, dp); err != nil {
			return nil, err
		}
	}
	db := dcfg.NewBuilder(prog, prog.NumThreads())
	db.ReadLog(log)
	a, col, err := newCollector(prog, &cfg, pb, db.Graph())
	if err != nil {
		return nil, err
	}
	col.ReadLog(log)
	if a.Profile = col.Finish(); len(a.Profile.Regions) == 0 {
		return nil, fmt.Errorf("core: %s produced no regions", prog.Name)
	}
	return a, nil
}

// recordLog records the whole-program pinball with the block-event log
// riding the recording machine and publishes both as dp's recovery point
// (a nil dp saves nothing). The save sits ahead of every read of the log,
// so a kill at any later point finds it on disk.
func recordLog(prog *isa.Program, cfg *Config, dp *progressLog) (*pinball.Pinball, *exec.BlockLog, error) {
	log := exec.NewBlockLog(prog)
	pb, err := Record(prog, cfg, log)
	if err != nil {
		return nil, nil, fmt.Errorf("core: analyze %s: %w", prog.Name, err)
	}
	dp.save(pb, log)
	return pb, log, nil
}

// Record is the recording rule every analysis shares: it fills cfg's
// defaults and records the whole-program pinball under cfg's seed,
// flow-control window and host bias, with the observers riding the
// recording machine on the block tier. Recording is fully seeded, so the
// same program and cfg always yield the same pinball.
func Record(prog *isa.Program, cfg *Config, observers ...exec.BlockObserver) (*pinball.Pinball, error) {
	cfg.fill()
	return pinball.RecordWithOptions(prog, cfg.Seed, exec.RunOpts{
		FlowWindow:  cfg.FlowWindow,
		QuantumBias: cfg.HostBias,
	}, observers...)
}

// sliceTargetFor returns the global filtered-instruction budget per
// slice: N × SliceUnit for an N-threaded program.
func sliceTargetFor(prog *isa.Program, cfg *Config) uint64 {
	return cfg.SliceUnit * uint64(prog.NumThreads())
}

// newCollector derives everything the BBV pass needs from the whole-run
// DCFG — the loop table, the marker set and the per-marker hit-count
// moduli — and returns the analysis it fills in, Profile unset, and a fresh
// collector configured for them. A resumed job takes the same path from
// the graph its saved log rebuilds, so marker choice can never differ
// between a fresh and a resumed run.
func newCollector(prog *isa.Program, cfg *Config, pb *pinball.Pinball, g *dcfg.Graph) (*Analysis, *bbv.Collector, error) {
	loops := g.FindLoops()
	sliceTarget := sliceTargetFor(prog, cfg)
	expectedSlices := pb.Schedule.Steps()/sliceTarget + 1
	maxExecs := cfg.MarkerEntryBudget * expectedSlices
	var markers []uint64
	for _, h := range g.StableMarkers(loops, maxExecs) {
		markers = append(markers, h.Addr)
	}
	if len(markers) == 0 {
		return nil, nil, fmt.Errorf("core: %s has no loops to mark regions with", prog.Name)
	}
	// Symmetric worker-loop headers (entered once per thread per episode)
	// fire in N-hit bursts under natural scheduling; restrict their
	// boundary counts to episode leaders so (PC, count) regions stay
	// stable across interleavings (the paper's stable-region requirement).
	modulus := make(map[uint64]uint64)
	for _, addr := range markers {
		if blk, ok := prog.BlockByAddr(addr); ok {
			if n := g.Nodes[blk.Global]; n != nil && n.Symmetric(prog.NumThreads()) {
				modulus[addr] = uint64(prog.NumThreads())
			}
		}
	}
	col := bbv.NewCollector(prog, markers, sliceTarget)
	col.SetMarkerModulus(modulus)
	if cfg.NoSpinFilter {
		col.DisableSyncFilter()
	}
	if cfg.VariableSlices {
		col.SetVariableSlices(0.25, 0.5)
	}
	a := &Analysis{Prog: prog, Pinball: pb, Graph: g, Loops: loops, Markers: markers, Config: *cfg}
	return a, col, nil
}

// LoopPoint is one selected representative region with its extrapolation
// multiplier (Equation 2).
type LoopPoint struct {
	Region      *bbv.Region
	Cluster     int
	ClusterSize int
	// Multiplier is Σ filtered counts of represented regions divided by
	// this region's filtered count — generalized for multi-draw engines
	// to W_h / (n_h · w_i), the per-draw share of the stratum's work,
	// so Σ value_i × multiplier_i stays the stratified ratio estimate.
	Multiplier float64
	// Spread is the average distance (in the projected BBV space) from
	// the cluster's members to this representative — a confidence proxy:
	// a tight cluster extrapolates reliably, a diffuse one less so.
	Spread float64
	// Draws is how many representatives the point's stratum contributed
	// (n_h; 1 under the classic pick-the-medoid rule).
	Draws int
	// Weight is the draw's share of total work; weights sum to 1 across
	// the selection.
	Weight float64
}

// Selection is the set of looppoints chosen for an application.
type Selection struct {
	Analysis *Analysis
	// Sample is the engine-level selection: which engine drew the
	// points, the clustering (nil for "timebased"), the sampling strata,
	// and the per-draw weights. It is what interval estimation consumes.
	Sample *simpoint.Selection
	Points []LoopPoint
}

// Engine names the selection engine that produced the selection.
func (s *Selection) Engine() string { return s.Sample.Engine }

// Select projects and clusters the profile's regions, draws
// representatives with the configured selection engine (Section III-E;
// Config.Selector) and attaches the extrapolation multipliers. The
// default "simpoint" engine picks one medoid per cluster; its selections
// are pinned by the identity suite and the selections golden file.
func Select(a *Analysis) (*Selection, error) {
	cfg := a.Config
	regions := a.Profile.Regions
	var vectors [][]float64
	if cfg.SumBBVs {
		vectors = simpoint.SumProjectRegionsN(regions, a.Profile.NumBlocks, simpoint.DefaultDims, cfg.Seed, cfg.ClusterWorkers)
	} else {
		vectors = simpoint.ProjectRegionsN(regions, a.Profile.NumBlocks, simpoint.DefaultDims, cfg.Seed, cfg.ClusterWorkers)
	}
	engine := cfg.Selector
	if engine == "" {
		engine = "simpoint"
	}
	weights := make([]float64, len(regions))
	for i, r := range regions {
		weights[i] = float64(r.Filtered)
	}
	sp, err := simpoint.Select(engine, vectors, weights, simpoint.Options{
		MaxK: cfg.MaxK, Seed: cfg.Seed, Workers: cfg.ClusterWorkers,
	}, simpoint.SelectorOpts{Budget: cfg.SampleBudget})
	if err != nil {
		return nil, fmt.Errorf("core: selecting %s: %w", a.Prog.Name, err)
	}

	sel := &Selection{Analysis: a, Sample: sp}
	// Exact per-stratum work totals (uint64 sums — no float rounding).
	stratumFiltered := make([]uint64, len(sp.Strata))
	for h, st := range sp.Strata {
		for _, m := range st.Members {
			stratumFiltered[h] += regions[m].Filtered
		}
	}
	for _, dr := range sp.Regions {
		st := sp.Strata[dr.Stratum]
		rep := regions[dr.Index]
		// Multiplier W_h/(n_h·w_i): for a one-draw stratum this is the
		// classic Equation-2 multiplier, bit for bit (×1.0 is exact).
		mult := 0.0
		if rep.Filtered > 0 {
			mult = float64(stratumFiltered[dr.Stratum]) /
				(float64(st.Sampled) * float64(rep.Filtered))
		}
		// Mean member distance to this representative, accumulated in
		// ascending member order.
		var spread float64
		for _, m := range st.Members {
			spread += dist(vectors[m], vectors[dr.Index])
		}
		sel.Points = append(sel.Points, LoopPoint{
			Region:      rep,
			Cluster:     dr.Stratum,
			ClusterSize: st.Size(),
			Multiplier:  mult,
			Spread:      spread / float64(st.Size()),
			Draws:       st.Sampled,
			Weight:      dr.Weight,
		})
	}
	sort.Slice(sel.Points, func(i, k int) bool {
		return sel.Points[i].Region.Index < sel.Points[k].Region.Index
	})
	return sel, nil
}

// RegionSimMode selects how looppoints are simulated.
type RegionSimMode int

// Region simulation modes.
const (
	// RegionSimCheckpoint restores each looppoint's region pinball and
	// simulates it unconstrained from the snapshot, warming over the
	// captured warmup prefix (the ELFie-style path). All checkpoints
	// are extracted in one replay sweep, so total work scales with the
	// sample size, not with sample × application length.
	RegionSimCheckpoint RegionSimMode = iota
	// RegionSimBinaryDriven re-executes the binary from the program
	// start for every region with functional warming ("perfect warmup",
	// Section III-F) — the paper's most accurate configuration, at the
	// cost of visiting the whole prefix per region.
	RegionSimBinaryDriven
)

func (m RegionSimMode) String() string {
	if m == RegionSimBinaryDriven {
		return "binary-driven"
	}
	return "checkpoint"
}

// RegionResult pairs a looppoint with its simulated statistics and the
// host time the simulation took (for actual-speedup accounting).
type RegionResult struct {
	Point    LoopPoint
	Stats    *timing.Stats
	HostTime time.Duration
}

// Prediction is the extrapolated whole-program performance (Equation 1,
// generalized to every metric of interest as Section III-G notes).
type Prediction struct {
	Cycles       float64
	Seconds      float64
	Instructions float64
	BranchMisses float64
	Branches     float64
	L1DMisses    float64
	L2Misses     float64
	L3Misses     float64
	// Stack is the extrapolated cycle decomposition (CPI stack).
	Stack timing.CPIStack
}

// BranchMPKI returns the predicted branch misses per kilo-instruction.
func (p Prediction) BranchMPKI() float64 { return fmpki(p.BranchMisses, p.Instructions) }

// L1DMPKI returns the predicted L1-D MPKI.
func (p Prediction) L1DMPKI() float64 { return fmpki(p.L1DMisses, p.Instructions) }

// L2MPKI returns the predicted L2 MPKI.
func (p Prediction) L2MPKI() float64 { return fmpki(p.L2Misses, p.Instructions) }

// L3MPKI returns the predicted L3 MPKI.
func (p Prediction) L3MPKI() float64 { return fmpki(p.L3Misses, p.Instructions) }

func fmpki(m, i float64) float64 {
	if i == 0 {
		return 0
	}
	return m / i * 1000
}

// Extrapolate reconstructs whole-program metrics from the region results:
// total = Σ_i value_i × multiplier_i.
func Extrapolate(results []RegionResult, freqGHz float64) Prediction {
	var p Prediction
	for _, r := range results {
		m := r.Point.Multiplier
		p.Cycles += r.Stats.Cycles * m
		p.Instructions += float64(r.Stats.Instructions) * m
		p.BranchMisses += float64(r.Stats.BranchMisses) * m
		p.Branches += float64(r.Stats.Branches) * m
		p.L1DMisses += float64(r.Stats.L1DMisses) * m
		p.L2Misses += float64(r.Stats.L2Misses) * m
		p.L3Misses += float64(r.Stats.L3Misses) * m
		p.Stack.Add(timing.CPIStack{
			Base:    r.Stats.Stack.Base * m,
			Ifetch:  r.Stats.Stack.Ifetch * m,
			Memory:  r.Stats.Stack.Memory * m,
			Branch:  r.Stats.Stack.Branch * m,
			Compute: r.Stats.Stack.Compute * m,
			Sync:    r.Stats.Stack.Sync * m,
		})
	}
	p.Seconds = p.Cycles / (freqGHz * 1e9)
	return p
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// PercentError returns |predicted-actual|/actual × 100.
func PercentError(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return 100
	}
	e := (predicted - actual) / actual * 100
	if e < 0 {
		e = -e
	}
	return e
}
