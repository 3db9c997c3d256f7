package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"looppoint"
	"looppoint/internal/bbv"
	"looppoint/internal/core"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/pinball"
	"looppoint/internal/timing"
)

// The three library workloads: one client, one job at a time, so a layer
// can save at most the share of the job it was measured to take.

// appSpec names one program a library job runs on.
type appSpec struct {
	app    string
	input  string
	policy looppoint.WaitPolicy
}

func (s appSpec) String() string {
	p := "passive"
	if s.policy == looppoint.Active {
		p = "active"
	}
	return s.app + "/" + s.input + "/" + p
}

type builtApp struct {
	spec appSpec
	w    *looppoint.Workload
}

// buildApps builds the programs in the seed's order. quick swaps every
// input for the smallest one.
func buildApps(e *env, specs []appSpec) ([]builtApp, error) {
	apps := make([]builtApp, len(specs))
	for i, s := range specs {
		if e.quick {
			s.input = "test"
		}
		w, err := looppoint.BuildWorkload(s.app, looppoint.WorkloadOptions{Input: s.input, Policy: s.policy})
		if err != nil {
			return nil, err
		}
		apps[i] = builtApp{s, w}
	}
	e.rng().Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	return apps, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stopwatch times consecutive stages: lap returns the time since the
// previous lap in milliseconds.
type stopwatch struct{ last time.Time }

func startWatch() *stopwatch { return &stopwatch{time.Now()} }

func (s *stopwatch) lap() float64 {
	now := time.Now()
	d := now.Sub(s.last)
	s.last = now
	return ms(d)
}

func minstrPerS(instr uint64, millis float64) float64 {
	if millis <= 0 {
		return 0
	}
	return float64(instr) / 1e6 / (millis / 1e3)
}

// job finishes a sample: the digest is checked against the golden file
// and this process's first run of the same job.
func job(e *env, workload, spec string, millis float64, digest string, err error) jobSample {
	s := jobSample{Spec: spec, MS: millis}
	if err != nil {
		s.Fail = fmt.Sprintf("%s/%s: %v", workload, spec, err)
	} else {
		s.Fail = e.check.check(workload+"/"+spec, digest)
	}
	return s
}

// ---------------------------------------------------------------- ref-select

var refSelect = workload{
	name: "ref-select",
	why: "ref inputs, analysis only (Fig. 9): record, DCFG replay and BBV replay are nearly the whole job, clustering ~1%, " +
		"timing does nothing; one barrier-free and one barrier-heavy app",
	setup: func(e *env, t *trace) (instance, error) {
		apps, err := buildApps(e, []appSpec{
			{"657.xz_s.2", "ref", looppoint.Passive},  // barrier-free, heterogeneous threads
			{"621.wrf_s.1", "ref", looppoint.Passive}, // barrier-heavy
		})
		if err != nil {
			return nil, err
		}
		return &refSelectInst{e: e, apps: apps}, nil
	},
}

type refSelectInst struct {
	e    *env
	apps []builtApp
}

func (in *refSelectInst) close() {}

func (in *refSelectInst) config() looppoint.Config {
	cfg := looppoint.DefaultConfig()
	cfg.Seed = in.e.cfgSeed()
	return cfg
}

func (in *refSelectInst) round(t *trace) roundResult {
	var r roundResult
	for _, a := range in.apps {
		spec := a.spec.String()
		if t != nil {
			r.jobs = append(r.jobs, in.staged(t, a))
			continue
		}
		t0 := time.Now()
		sel, err := looppoint.Analyze(a.w, in.config())
		d := ms(time.Since(t0))
		digest := ""
		if err == nil {
			digest = selectionDigest(sel)
		}
		r.jobs = append(r.jobs, job(in.e, "ref-select", spec, d, digest, err))
		in.e.between()
	}
	return r
}

// analysisProbes times the layers of core.Analyze one by one on prog:
// record, a replay with no observer (the interpreter floor under both
// analysis passes), the DCFG replay, loop finding, and the BBV replay.
// It returns the sum of the four layers Analyze itself runs.
func analysisProbes(t *trace, spec string, w *looppoint.Workload, cfg core.Config) (float64, error) {
	prog, threads := w.App.Prog, w.Threads()
	sw := startWatch()
	pb, err := pinball.RecordWithOptions(prog, cfg.Seed, exec.RunOpts{FlowWindow: cfg.FlowWindow})
	if err != nil {
		return 0, err
	}
	rec := sw.lap()
	steps := pb.Schedule.Steps()
	t.add(spec, "pinball.record_ms", rec)
	t.add(spec, "pinball.record_minstr_per_s", minstrPerS(steps, rec))

	if _, err := pb.Replay(prog); err != nil {
		return 0, err
	}
	floor := sw.lap()
	t.add(spec, "exec.replay_floor_ms", floor)
	t.add(spec, "exec.replay_minstr_per_s", minstrPerS(steps, floor))

	db := dcfg.NewBuilder(prog, threads)
	if _, err := pb.Replay(prog, db); err != nil {
		return 0, err
	}
	g := db.Graph()
	dcfgMS := sw.lap()
	t.add(spec, "dcfg.replay_ms", dcfgMS)

	// The marker rule of core.Analyze, from the same public pieces.
	loops := g.FindLoops()
	target := cfg.SliceUnit * uint64(threads)
	var markers []uint64
	modulus := map[uint64]uint64{}
	for _, h := range g.StableMarkers(loops, cfg.MarkerEntryBudget*(steps/target+1)) {
		markers = append(markers, h.Addr)
		if n := g.Nodes[h.Global]; n != nil && n.Symmetric(threads) {
			modulus[h.Addr] = uint64(threads)
		}
	}
	loopsMS := sw.lap()
	t.add(spec, "dcfg.loops_ms", loopsMS)

	col := bbv.NewCollector(prog, markers, target)
	col.SetMarkerModulus(modulus)
	if _, err := pb.Replay(prog, col); err != nil {
		return 0, err
	}
	prof := col.Finish()
	bbvMS := sw.lap()
	t.add(spec, "bbv.replay_ms", bbvMS)
	t.add(spec, "bbv.regions", float64(len(prof.Regions)))
	return rec + dcfgMS + loopsMS + bbvMS, nil
}

func (in *refSelectInst) staged(t *trace, a builtApp) jobSample {
	spec := a.spec.String()
	fail := func(err error) jobSample { return job(in.e, "ref-select", spec, 0, "", err) }
	cfg := in.config()

	sw := startWatch()
	w, err := looppoint.BuildWorkload(a.spec.app, looppoint.WorkloadOptions{Input: a.spec.input, Policy: a.spec.policy})
	if err != nil {
		return fail(err)
	}
	t.add(spec, "workloads.build_ms", sw.lap())

	layers, err := analysisProbes(t, spec, w, cfg)
	if err != nil {
		return fail(err)
	}

	sw = startWatch()
	an, err := core.Analyze(w.App.Prog, cfg)
	if err != nil {
		return fail(err)
	}
	analyze := sw.lap()
	sel, err := core.Select(an)
	if err != nil {
		return fail(err)
	}
	sel2 := sw.lap()
	t.add(spec, "core.analyze_ms", analyze)
	t.add(spec, "core.analyze_minstr_per_s", minstrPerS(an.Pinball.Schedule.Steps(), analyze))
	t.add(spec, "core.analyze_other_ms", analyze-layers)
	t.add(spec, "simpoint.select_ms", sel2)
	t.add(spec, "simpoint.points", float64(len(sel.Points)))
	// The layers against the whole, seconds apart in the same job.
	t.pool("coverage", (layers+sel2)/(analyze+sel2))
	return job(in.e, "ref-select", spec, layers+sel2, selectionDigest(sel), nil)
}

// ------------------------------------------------------------ train-validate

var trainValidate = workload{
	name: "train-validate",
	why: "train inputs, Evaluate against the full detailed run (Fig. 5a/7): detailed simulation dominates, analysis ~1/4; " +
		"exec is timing-driven; the active-wait app keeps the spin filter on the path",
	setup: func(e *env, t *trace) (instance, error) {
		apps, err := buildApps(e, []appSpec{
			{"657.xz_s.2", "train", looppoint.Passive},
			{"621.wrf_s.1", "train", looppoint.Passive},
			{"627.cam4_s.1", "train", looppoint.Passive},
			{"644.nab_s.1", "train", looppoint.Active},
		})
		if err != nil {
			return nil, err
		}
		return &trainValidateInst{e: e, apps: apps}, nil
	},
}

type trainValidateInst struct {
	e    *env
	apps []builtApp
}

func (in *trainValidateInst) close() {}

func (in *trainValidateInst) round(t *trace) roundResult {
	var r roundResult
	cfg := looppoint.DefaultConfig()
	cfg.Seed = in.e.cfgSeed()
	for _, a := range in.apps {
		if t != nil {
			r.jobs = append(r.jobs, in.staged(t, a, cfg))
			continue
		}
		t0 := time.Now()
		rep, err := looppoint.Evaluate(a.w, cfg, looppoint.EvalOptions{CompareFull: true})
		d := ms(time.Since(t0))
		digest := ""
		if err == nil {
			digest = evalDigest(rep.Selection, rep.Regions, rep.Predicted, rep.Full)
		}
		r.jobs = append(r.jobs, job(in.e, "train-validate", a.spec.String(), d, digest, err))
		in.e.between()
	}
	return r
}

// regionSpecs names the checkpoints of the given regions of an analysis,
// each with the warm-up prefix core's checkpoint-driven simulation uses
// (functional warm-up over the preceding cfg.WarmupRegions regions).
func regionSpecs(an *core.Analysis, indexes []int) []pinball.RegionSpec {
	specs := make([]pinball.RegionSpec, len(indexes))
	for i, idx := range indexes {
		r := an.Profile.Regions[idx]
		back := idx - an.Config.WarmupRegions
		if back < 0 {
			back = 0
		}
		specs[i] = pinball.RegionSpec{
			Name:            fmt.Sprintf("%s.r%d", an.Prog.Name, idx),
			WarmupStartStep: an.Profile.Regions[back].StartICount,
			StartStep:       r.StartICount,
			EndStep:         r.EndICount,
			Start:           r.Start,
			End:             r.End,
		}
	}
	return specs
}

func pointIndexes(sel *core.Selection) []int {
	idx := make([]int, len(sel.Points))
	for i, lp := range sel.Points {
		idx[i] = lp.Region.Index
	}
	return idx
}

// sweep2 simulates the checkpoints on two goroutines, one simulator each,
// the way core fans regions out at width 2. It returns the results in
// point order, the sum of the per-region times and the sweep's wall time.
func sweep2(sel *core.Selection, simCfg timing.Config, cks []*pinball.Pinball) ([]core.RegionResult, float64, float64, error) {
	results := make([]core.RegionResult, len(cks))
	errs := make([]error, len(cks))
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim, err := timing.New(simCfg, sel.Analysis.Prog)
			for i := range next {
				if err != nil {
					errs[i] = err
					continue
				}
				r0 := time.Now()
				sim.Seed = sel.Analysis.Config.Seed
				st, serr := sim.SimulateCheckpoint(cks[i])
				results[i] = core.RegionResult{Point: sel.Points[i], Stats: st, HostTime: time.Since(r0)}
				errs[i] = serr
			}
		}()
	}
	for i := range cks {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := ms(time.Since(t0))
	var sumMS float64
	for i, r := range results {
		if errs[i] != nil {
			return nil, 0, 0, errs[i]
		}
		sumMS += ms(r.HostTime)
	}
	return results, sumMS, wall, nil
}

func checkpointSteps(cks []*pinball.Pinball) uint64 {
	var n uint64
	for _, ck := range cks {
		n += ck.Schedule.Steps()
	}
	return n
}

// staged is looppoint.Evaluate taken apart: each layer's public function
// in turn, on the same program and configuration.
func (in *trainValidateInst) staged(t *trace, a builtApp, cfg core.Config) jobSample {
	spec := a.spec.String()
	fail := func(err error) jobSample { return job(in.e, "train-validate", spec, 0, "", err) }
	prog := a.w.App.Prog
	simCfg := looppoint.Gainestown(a.w.Threads())

	sw := startWatch()
	an, err := core.Analyze(prog, cfg)
	if err != nil {
		return fail(err)
	}
	analyze := sw.lap()
	sel, err := core.Select(an)
	if err != nil {
		return fail(err)
	}
	selMS := sw.lap()
	cks, err := an.Pinball.ExtractRegions(prog, regionSpecs(an, pointIndexes(sel)))
	if err != nil {
		return fail(err)
	}
	extract := sw.lap()
	regions, simSum, simWall, err := sweep2(sel, simCfg, cks)
	if err != nil {
		return fail(err)
	}
	sw.lap()
	pred := core.Extrapolate(regions, simCfg.FreqGHz)
	extrap := sw.lap()
	sim, err := timing.New(simCfg, prog)
	if err != nil {
		return fail(err)
	}
	sim.Seed = cfg.Seed
	full, err := sim.SimulateFull()
	if err != nil {
		return fail(err)
	}
	fullMS := sw.lap()

	t.add(spec, "core.analyze_ms", analyze)
	t.add(spec, "core.analyze_minstr_per_s", minstrPerS(an.Pinball.Schedule.Steps(), analyze))
	t.add(spec, "simpoint.select_ms", selMS)
	t.add(spec, "simpoint.points", float64(len(sel.Points)))
	t.add(spec, "bbv.regions", float64(len(an.Profile.Regions)))
	t.add(spec, "pinball.extract_ms", extract)
	t.add(spec, "timing.region_sim_ms", simSum)
	t.add(spec, "timing.region_minstr_per_s", minstrPerS(checkpointSteps(cks), simSum))
	t.add(spec, "core.region_fanout_eff", simSum/(2*simWall))
	t.add(spec, "core.extrapolate_ms", extrap)
	t.add(spec, "timing.full_sim_ms", fullMS)
	t.add(spec, "timing.full_minstr_per_s", minstrPerS(full.Instructions, fullMS))
	t.add(spec, "core.runtime_err_pct", core.PercentError(pred.Seconds, full.RuntimeSeconds()))
	t.add(spec, "core.cycles_err_pct", core.PercentError(pred.Cycles, full.Cycles))
	l2 := pred.L2MPKI() - full.L2MPKI()
	if l2 < 0 {
		l2 = -l2
	}
	t.add(spec, "core.l2_mpki_diff", l2)
	total := analyze + selMS + extract + simWall + extrap + fullMS
	// The layers against the whole, seconds apart in the same job.
	if _, err := looppoint.Evaluate(a.w, cfg, looppoint.EvalOptions{CompareFull: true}); err != nil {
		return fail(err)
	}
	t.pool("coverage", total/sw.lap())
	// The same digest as the un-staged job: the staged form must compute
	// exactly what looppoint.Evaluate computes.
	return job(in.e, "train-validate", spec, total, evalDigest(sel, regions, pred, full), nil)
}

// ---------------------------------------------------------- checkpoint-reuse

var checkpointReuse = workload{
	name: "checkpoint-reuse",
	why: "stored region checkpoints re-selected (2 engines x 3 MaxK) and re-simulated on OOO and in-order cores (Fig. 5b): " +
		"clustering and region simulation only; bypasses record, DCFG, BBV and the full run",
	setup: setupCheckpointReuse,
}

// variant is one re-selection of the stored analysis.
type variant struct {
	selector string
	maxK     int
	inorder  bool
}

func (v variant) String() string {
	sys := "gainestown"
	if v.inorder {
		sys = "inorder"
	}
	return fmt.Sprintf("%s/k%d/%s", v.selector, v.maxK, sys)
}

type checkpointReuseInst struct {
	e        *env
	an       *core.Analysis
	threads  int
	variants []variant
	dir      string
	paths    map[int]string // region index → stored checkpoint
}

func (in *checkpointReuseInst) close() { os.RemoveAll(in.dir) }

// selectVariant re-selects over the stored analysis with the variant's
// engine and cluster cap.
func (in *checkpointReuseInst) selectVariant(v variant) (*core.Selection, error) {
	an := *in.an
	an.Config.Selector = v.selector
	an.Config.MaxK = v.maxK
	return core.Select(&an)
}

func setupCheckpointReuse(e *env, t *trace) (instance, error) {
	input := "train"
	if e.quick {
		input = "test"
	}
	w, err := looppoint.BuildWorkload("638.imagick_s.1", looppoint.WorkloadOptions{Input: input})
	if err != nil {
		return nil, err
	}
	// The stored artifact is the same at every seed, as it is for users who
	// share checkpoints: how many points a selection has, and so how much a
	// job simulates, depends on the clustering seed (4 to 6 points over
	// seeds 1..10), which would make the seeds unequal amounts of work. The
	// seed orders the variants and seeds the simulated OS instead.
	cfg := looppoint.DefaultConfig()
	cfg.Seed = 1
	cfg.SliceUnit = 10_000 // ~200 regions, so that clustering has something to do
	an, err := core.Analyze(w.App.Prog, cfg)
	if err != nil {
		return nil, err
	}
	in := &checkpointReuseInst{e: e, an: an, threads: w.Threads(), paths: map[int]string{}}
	for i, sel := range []string{"simpoint", "stratified"} {
		for k, maxK := range []int{10, 30, 50} {
			in.variants = append(in.variants, variant{sel, maxK, (i*3+k)%2 == 1})
		}
	}
	if e.quick {
		in.variants = in.variants[:2]
	}
	e.rng().Shuffle(len(in.variants), func(i, j int) {
		in.variants[i], in.variants[j] = in.variants[j], in.variants[i]
	})

	// Store the union of every variant's regions, extracted in one sweep.
	union := map[int]bool{}
	for _, v := range in.variants {
		sel, err := in.selectVariant(v)
		if err != nil {
			return nil, err
		}
		for _, idx := range pointIndexes(sel) {
			union[idx] = true
		}
	}
	var indexes []int
	for idx := range union {
		indexes = append(indexes, idx)
	}
	sort.Ints(indexes)
	sw := startWatch()
	cks, err := an.Pinball.ExtractRegions(an.Prog, regionSpecs(an, indexes))
	if err != nil {
		return nil, err
	}
	extract := sw.lap()
	if in.dir, err = os.MkdirTemp(e.scratch, "checkpoints-"); err != nil {
		return nil, err
	}
	var bytes int
	for i, ck := range cks {
		path := filepath.Join(in.dir, ck.Name+".pinball")
		if err := ck.Save(path); err != nil {
			return nil, err
		}
		in.paths[indexes[i]] = path
		bytes += ck.EncodedSize()
	}
	save := sw.lap()
	if t != nil {
		t.add("set-up", "pinball.extract_ms", extract)
		t.add("set-up", "pinball.save_mb_per_s", float64(bytes)/1e6/(save/1e3))
	}
	return in, nil
}

// round runs every variant: select, load each chosen checkpoint, simulate
// it, extrapolate. The staged form is the same calls with a stopwatch
// between them, because here the job already is the layers in turn.
func (in *checkpointReuseInst) round(t *trace) roundResult {
	var r roundResult
	for _, v := range in.variants {
		spec := v.String()
		t0 := time.Now()
		digest, layers, err := in.runVariant(t, v)
		d := ms(time.Since(t0))
		if t != nil {
			t.pool("coverage", layers/d)
			d = layers
		}
		r.jobs = append(r.jobs, job(in.e, "checkpoint-reuse", spec, d, digest, err))
		in.e.between()
	}
	return r
}

// runVariant returns the job's digest and the sum of its layers' times.
func (in *checkpointReuseInst) runVariant(t *trace, v variant) (string, float64, error) {
	simCfg := looppoint.Gainestown(in.threads)
	if v.inorder {
		simCfg = looppoint.InOrderSystem(in.threads)
	}
	sim, err := timing.New(simCfg, in.an.Prog)
	if err != nil {
		return "", 0, err
	}
	var loadMS, simMS float64
	var cks []*pinball.Pinball // kept only when traced, for sizes

	sw := startWatch()
	sel, err := in.selectVariant(v)
	if err != nil {
		return "", 0, err
	}
	selMS := sw.lap()
	regions := make([]core.RegionResult, len(sel.Points))
	for i, lp := range sel.Points {
		ck, err := pinball.Load(in.paths[lp.Region.Index])
		if err != nil {
			return "", 0, err
		}
		loadMS += sw.lap()
		sim.Seed = in.e.cfgSeed()
		st, err := sim.SimulateCheckpoint(ck)
		if err != nil {
			return "", 0, err
		}
		d := sw.lap()
		simMS += d
		regions[i] = core.RegionResult{Point: lp, Stats: st, HostTime: time.Duration(d * float64(time.Millisecond))}
		if t != nil {
			cks = append(cks, ck)
		}
	}
	pred := core.Extrapolate(regions, simCfg.FreqGHz)
	extrap := sw.lap()
	if t != nil {
		spec := v.String()
		var bytes int
		for _, ck := range cks {
			bytes += ck.EncodedSize()
		}
		t.add(spec, "simpoint.select_ms", selMS)
		t.add(spec, "simpoint.points", float64(len(sel.Points)))
		t.add(spec, "pinball.load_ms", loadMS)
		t.add(spec, "pinball.load_mb_per_s", float64(bytes)/1e6/(loadMS/1e3))
		t.add(spec, "timing.region_sim_ms", simMS)
		t.add(spec, "timing.region_minstr_per_s", minstrPerS(checkpointSteps(cks), simMS))
		t.add(spec, "core.extrapolate_ms", extrap)
	}
	return reuseDigest(sel, regions, pred), selMS + loadMS + simMS + extrap, nil
}
