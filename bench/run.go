package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric of the benchmark. bound is only meaningful
// for end-to-end metrics: the share of the parent's median by which the
// metric may worsen before it counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The four gating metrics; every workload reports all of them. The bounds
// are derived from the -aa data in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"cpu_s_per_job", "s", "lower", 0.25},
}

// Per-layer metrics, from the traced run. A layer a workload bypasses
// reports 0, which is the prediction for every change to that layer.
var perLayer = []metricDef{
	{"workloads.build_ms", "ms", "lower", 0},
	{"pinball.record_ms", "ms", "lower", 0},
	{"pinball.record_minstr_per_s", "Minstr/s", "higher", 0},
	{"exec.replay_floor_ms", "ms", "lower", 0},
	{"exec.replay_minstr_per_s", "Minstr/s", "higher", 0},
	{"dcfg.replay_ms", "ms", "lower", 0},
	{"dcfg.loops_ms", "ms", "lower", 0},
	{"bbv.replay_ms", "ms", "lower", 0},
	{"bbv.regions", "count", "higher", 0},
	{"core.analyze_ms", "ms", "lower", 0},
	{"core.analyze_minstr_per_s", "Minstr/s", "higher", 0},
	{"core.analyze_other_ms", "ms", "lower", 0},
	{"simpoint.select_ms", "ms", "lower", 0},
	{"simpoint.points", "count", "lower", 0},
	{"pinball.load_ms", "ms", "lower", 0},
	{"pinball.load_mb_per_s", "MB/s", "higher", 0},
	{"timing.region_sim_ms", "ms", "lower", 0},
	{"timing.region_minstr_per_s", "Minstr/s", "higher", 0},
	{"core.extrapolate_ms", "ms", "lower", 0},
	{"pinball.extract_ms", "ms", "lower", 0},
	{"pinball.save_mb_per_s", "MB/s", "higher", 0},
	{"timing.full_sim_ms", "ms", "lower", 0},
	{"timing.full_minstr_per_s", "Minstr/s", "higher", 0},
	{"core.region_fanout_eff", "ratio", "higher", 0},
	{"core.runtime_err_pct", "%", "lower", 0},
	{"core.cycles_err_pct", "%", "lower", 0},
	{"core.l2_mpki_diff", "mpki", "lower", 0},
	{"serve.boot_ms", "ms", "lower", 0},
	{"serve.queue_wait_p50_ms", "ms", "lower", 0},
	{"serve.run_p50_ms", "ms", "lower", 0},
	{"serve.claims", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"campaign.claim_p50_ms", "ms", "lower", 0},
	{"campaign.claim_p95_ms", "ms", "lower", 0},
	{"campaign.overhead_p50_ms", "ms", "lower", 0},
	{"campaign.dispatched", "count", "lower", 0},
	{"campaign.steals", "count", "lower", 0},
	{"campaign.cache_stores", "count", "lower", 0},
	{"campaign.resume_ms", "ms", "lower", 0},
	{"campaign.worker_imbalance", "ratio", "lower", 0},
	{"harness.evaluations", "count", "lower", 0},
	{"harness.memo_hit_ratio", "ratio", "higher", 0},
	{"artifact.journal_bytes", "bytes", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.alloc_mb_per_job", "MB", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"host.speed_index", "ratio", "lower", 0},
}

// setupReps is how many times a pass sets the workload up; setup_s is the
// median. The last instance is the one the timed rounds use. Two is what
// the driver's total-time cap leaves room for.
const setupReps = 2

// jobSample is one job as its caller saw it.
type jobSample struct {
	Spec string  `json:"spec"`
	MS   float64 `json:"ms"`
	Fail string  `json:"fail,omitempty"`
}

// roundResult is what one round of a workload did.
type roundResult struct {
	jobs []jobSample
	// fails are broken invariants of the round as a whole (a fleet that
	// re-dispatched on resume, say); each counts as one failed operation.
	fails []string
}

// instance is a workload after set-up. round runs every job of the
// workload once; with a trace it runs them in staged form, the benchmark
// calling each layer's public function in turn, and records layer times
// into it, with the job's trace.coverage: the sum of its layers over the
// whole job measured beside them. End-to-end numbers only ever come from
// rounds with a nil trace.
type instance interface {
	round(t *trace) roundResult
	close()
}

type workload struct {
	name string
	why  string
	// setup builds programs, prepares stored artifacts and boots servers.
	// t is non-nil only in a traced run, for the layers set-up exercises.
	setup func(e *env, t *trace) (instance, error)
}

var workloads = []workload{refSelect, trainValidate, checkpointReuse, fleetCampaign}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a workload gets from the run: the seed, where to put files,
// and the digest checker.
type env struct {
	seed    int64
	quick   bool
	scratch string
	check   *checker
	cal     calibrator
}

// between is called by the one-client workloads after every job, outside
// the job's timed span: it samples the host's speed next to the job.
func (e *env) between() { e.cal.run(2) }

// cfgSeed is the seed handed to every library job.
func (e *env) cfgSeed() uint64 { return uint64(e.seed) }

// rng returns the generator that orders a workload's jobs. It depends on
// the seed only, so the same seed always gives the same order.
func (e *env) rng() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }

// trace collects layer observations of a traced run.
type trace struct {
	// layers: spec → layer → one value per staged job of that spec.
	layers map[string]map[string][]float64
	// pools: raw samples pooled over the whole run (claim latencies).
	pools map[string][]float64
}

func newTrace() *trace {
	return &trace{layers: map[string]map[string][]float64{}, pools: map[string][]float64{}}
}

func (t *trace) add(spec, layer string, v float64) {
	m := t.layers[spec]
	if m == nil {
		m = map[string][]float64{}
		t.layers[spec] = m
	}
	m[layer] = append(m[layer], v)
}

func (t *trace) pool(name string, v float64) { t.pools[name] = append(t.pools[name], v) }

// value is a layer's figure for the workload: the median over the staged
// jobs of each spec, averaged over the specs that ran the layer, so the
// figure is "per job of an average round".
func (t *trace) value(layer string) (v float64, n int) {
	var meds []float64
	for _, m := range t.layers {
		if xs := m[layer]; len(xs) > 0 {
			meds = append(meds, median(xs))
			n += len(xs)
		}
	}
	return mean(meds), n
}

// roundSample is the raw record of one timed round, as measured, with the
// host-speed index sampled around and inside it.
type roundSample struct {
	WallS     float64     `json:"wall_s"`
	CPUS      float64     `json:"cpu_s"`
	HostIndex float64     `json:"host_index"`
	Jobs      []jobSample `json:"jobs"`
}

// metricValue is one reported metric with its sample count.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// passResult is one run of one workload, traced or not.
type passResult struct {
	Workload   string        `json:"workload"`
	Seed       int64         `json:"seed"`
	Traced     bool          `json:"traced"`
	Seconds    float64       `json:"seconds"`
	TimedS     float64       `json:"timed_s"`
	Attempted  int           `json:"ops_attempted"`
	Failed     int           `json:"ops_failed"`
	Failures   []string      `json:"failures,omitempty"`
	SetupS     []float64     `json:"setup_samples_s"`
	SetupIndex []float64     `json:"setup_host_index"`
	Rounds     []roundSample `json:"rounds"`
	Staged     int           `json:"staged_rounds,omitempty"`
	// HostIndex is the host-speed index of the timed section (calib.go);
	// Measured holds the end-to-end values before they were divided by it.
	HostIndex float64                `json:"host_index"`
	KernelMS  []float64              `json:"ref_kernel_ms"`
	Measured  map[string]float64     `json:"measured,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// roundBurst is how many reference-kernel runs sample the host's speed
// before and again after every span (together about 5% of a round).
const roundBurst = 8

// indexedSpan runs fn as one measured span: the previous span's garbage
// collected and the host's speed sampled before and after it, outside the
// span; the speed samples fn itself takes (between jobs) are taken out of
// the span. It returns the span's wall-clock, CPU and host-speed index.
func indexedSpan(e *env, fn func()) (wallS, cpuS, index float64) {
	runtime.GC()
	mark := len(e.cal.samples)
	e.cal.run(roundBurst)
	calWall, calCPU := e.cal.wall, e.cal.cpu
	cpu0, t0 := cpuSeconds(), time.Now()
	fn()
	wallS = (time.Since(t0) - (e.cal.wall - calWall)).Seconds()
	cpuS = cpuSeconds() - cpu0 - (e.cal.cpu - calCPU)
	e.cal.run(roundBurst)
	return wallS, cpuS, e.cal.indexSince(mark)
}

// timedRound runs one round as an indexed span.
func timedRound(e *env, inst instance, t *trace) (roundResult, roundSample) {
	var r roundResult
	var s roundSample
	s.WallS, s.CPUS, s.HostIndex = indexedSpan(e, func() { r = inst.round(t) })
	s.Jobs = r.jobs
	return r, s
}

// runPass sets the workload up and measures it for the given number of
// seconds. Un-traced, every round is an ordinary round and the result
// carries the end-to-end metrics. Traced, ordinary rounds alternate with
// staged rounds and the result carries the per-layer metrics.
func runPass(w workload, e *env, seconds float64, traced bool) (*passResult, error) {
	res := &passResult{Workload: w.name, Seed: e.seed, Traced: traced, Seconds: seconds,
		Metrics: map[string]metricValue{}}
	var tr *trace
	if traced {
		tr = newTrace()
	}
	count := func(r roundResult) {
		res.Attempted += len(r.jobs) + len(r.fails)
		for _, j := range r.jobs {
			if j.Fail != "" {
				res.Failed++
				res.Failures = append(res.Failures, j.Fail)
			}
		}
		res.Failed += len(r.fails)
		res.Failures = append(res.Failures, r.fails...)
	}

	// Set-up: build, prepare, boot, and exactly one discarded warm-up
	// round. It is repeated so that setup_s is a median, not one sample.
	var inst instance
	reps := setupReps
	if e.quick {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		if inst != nil {
			inst.close()
		}
		// Only the last set-up is traced, so its layers are counted once.
		var st *trace
		if rep == reps-1 {
			st = tr
		}
		var err error
		wall, _, index := indexedSpan(e, func() {
			if inst, err = w.setup(e, st); err == nil {
				count(inst.round(nil))
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.SetupS = append(res.SetupS, wall)
		res.SetupIndex = append(res.SetupIndex, index)
	}
	defer inst.close()
	timedMark := len(e.cal.samples)

	// Whole rounds only: another starts while it is expected to end
	// nearer to the requested time than the section would without it.
	// A traced pass follows every ordinary round with a staged one, and
	// charges allocation and GC pauses of the ordinary rounds only.
	start := time.Now()
	var mem memUse
	for {
		r0 := time.Now()
		if traced {
			mem.begin()
		}
		r, s := timedRound(e, inst, nil)
		count(r)
		res.Rounds = append(res.Rounds, s)
		if traced {
			mem.end(len(r.jobs))
			r, _ := timedRound(e, inst, tr)
			count(r)
			res.Staged++
		}
		if e.quick {
			break
		}
		if (time.Since(start)+time.Since(r0)/2).Seconds() >= seconds && (!traced || res.Staged >= 2) {
			break
		}
	}
	res.TimedS = time.Since(start).Seconds()
	res.HostIndex = e.cal.indexSince(timedMark)
	res.KernelMS = e.cal.samples

	if traced {
		layerMetrics(res, tr, &mem)
	} else {
		e2eMetrics(res)
	}
	return res, nil
}

// e2eMetrics fills the four end-to-end metrics from the timed rounds:
// in Measured the values as the clock gave them, and in Metrics the same
// summaries of values brought to the undisturbed host's speed, each round
// (and each set-up) divided by its own host-speed index; see calib.go.
func e2eMetrics(res *passResult) {
	var rawRate, rate, rawLat, lat, setups []float64
	var rawCPU, cpu float64
	jobs := 0
	for _, r := range res.Rounds {
		rawRate = append(rawRate, float64(len(r.Jobs))/r.WallS)
		rate = append(rate, float64(len(r.Jobs))/r.WallS*r.HostIndex)
		rawCPU += r.CPUS
		cpu += r.CPUS / r.HostIndex
		jobs += len(r.Jobs)
		for _, j := range r.Jobs {
			rawLat = append(rawLat, j.MS)
			lat = append(lat, j.MS/r.HostIndex)
		}
	}
	for i, s := range res.SetupS {
		setups = append(setups, s/res.SetupIndex[i])
	}
	res.Measured = map[string]float64{
		"setup_s":       median(res.SetupS),
		"jobs_per_s":    median(rawRate),
		"job_p50_ms":    median(rawLat),
		"cpu_s_per_job": rawCPU / float64(jobs),
	}
	res.Metrics["setup_s"] = metricValue{median(setups), "s", len(setups)}
	res.Metrics["jobs_per_s"] = metricValue{median(rate), "jobs/s", len(rate)}
	res.Metrics["job_p50_ms"] = metricValue{median(lat), "ms", len(lat)}
	res.Metrics["cpu_s_per_job"] = metricValue{cpu / float64(jobs), "s", jobs}
}

// layerMetrics fills every per-layer metric. Layers the workload did not
// run stay at 0 with 0 samples. Like the end-to-end metrics, times and
// rates are brought to the undisturbed host's speed with the pass's
// host-speed index; counts, sizes and ratios are as measured.
func layerMetrics(res *passResult, t *trace, mem *memUse) {
	set := func(name string, v float64, n int) {
		m := res.Metrics[name]
		switch {
		case m.Unit == "ms":
			v /= res.HostIndex
		case strings.HasSuffix(m.Unit, "/s"):
			v *= res.HostIndex
		}
		m.Value, m.Samples = v, n
		res.Metrics[name] = m
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{Unit: d.Unit}
		if v, n := t.value(d.Name); n > 0 {
			set(d.Name, v, n)
		}
	}
	for _, p := range []struct {
		metric, pool string
		pct          float64
	}{
		{"campaign.claim_p50_ms", "claim_ms", 50},
		{"campaign.claim_p95_ms", "claim_ms", 95},
		{"serve.queue_wait_p50_ms", "queue_wait_ms", 50},
		{"serve.run_p50_ms", "run_ms", 50},
		{"campaign.overhead_p50_ms", "overhead_ms", 50},
		{"trace.coverage", "coverage", 50},
	} {
		if xs := t.pools[p.pool]; len(xs) > 0 {
			set(p.metric, percentile(xs, p.pct), len(xs))
		}
	}
	set("host.speed_index", res.HostIndex, len(res.KernelMS))
	set("process.peak_rss_mb", peakRSSMB(), 1)
	set("process.gc_pause_ms", float64(mem.pauseNs)/1e6/float64(mem.jobs), int(mem.gcs))
	set("process.alloc_mb_per_job", float64(mem.allocBytes)/1e6/float64(mem.jobs), mem.jobs)
}

// memUse adds up what the Go heap cost over the spans between begin and end.
type memUse struct {
	before              runtime.MemStats
	allocBytes, pauseNs uint64
	gcs                 uint32
	jobs                int
}

func (m *memUse) begin() { runtime.ReadMemStats(&m.before) }

func (m *memUse) end(jobs int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocBytes += after.TotalAlloc - m.before.TotalAlloc
	m.pauseNs += after.PauseTotalNs - m.before.PauseTotalNs
	m.gcs += after.NumGC - m.before.NumGC
	m.jobs += jobs
}

// printPass writes the metrics of a pass for a human reader.
func printPass(w io.Writer, res *passResult) {
	kind, defs := "end-to-end", endToEnd
	if res.Traced {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "%s  seed=%d  %s  timed=%.1fs  rounds=%d staged=%d  ops_attempted=%d ops_failed=%d  host_index=%.3f (n=%d)\n",
		res.Workload, res.Seed, kind, res.TimedS, len(res.Rounds), res.Staged, res.Attempted, res.Failed,
		res.HostIndex, len(res.KernelMS))
	for _, d := range defs {
		m := res.Metrics[d.Name]
		if res.Traced && m.Samples == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-9s n=%d", d.Name, m.Value, m.Unit, m.Samples)
		if raw, ok := res.Measured[d.Name]; ok {
			fmt.Fprintf(w, "   (measured %.4f)", raw)
		}
		fmt.Fprintln(w)
	}
	if res.Traced {
		var skipped []string
		for _, d := range defs {
			if res.Metrics[d.Name].Samples == 0 {
				skipped = append(skipped, d.Name)
			}
		}
		sort.Strings(skipped)
		fmt.Fprintf(w, "  bypassed layers (0): %v\n", skipped)
	}
	for i, f := range res.Failures {
		if i == 5 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(res.Failures)-5)
			break
		}
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// scratchDir makes the directory a pass keeps its files in. It is inside
// the checkout (the benchmark may write nowhere else) and removed by the
// caller when the pass ends.
func scratchDir() (string, error) {
	base := filepath.Join(benchDir(), "..", ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "lpbench-scratch-")
}
