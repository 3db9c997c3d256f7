package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"looppoint"
)

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 25, 2},
		{[]float64{10, 20}, 95, 19.5},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives, because that is what the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1, 9, 3})
	if q1 != 1.5 || q3 != 8 {
		t.Errorf("quartiles(5,1,9,3) = %v, %v, want 1.5, 8", q1, q3)
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread(1..10) = %v, want 1", got)
	}
}

// A digest depends on every bit of every number, and on nothing else.
func TestDigestStability(t *testing.T) {
	a := fleetDigest(10, 3, 0.125, 1e9, 1.5)
	if b := fleetDigest(10, 3, 0.125, 1e9, 1.5); a != b {
		t.Errorf("same inputs, different digests: %s %s", a, b)
	}
	if b := fleetDigest(10, 3, math.Nextafter(0.125, 1), 1e9, 1.5); a == b {
		t.Errorf("a last-bit change of a float left the digest at %s", a)
	}
	if b := fleetDigest(10, 4, 0.125, 1e9, 1.5); a == b {
		t.Errorf("a changed count left the digest at %s", a)
	}
	// Pinned: a digest is comparable across processes and commits.
	if want := "a2639d453a4a63b6"; a != want {
		t.Errorf("fleetDigest(10,3,0.125,1e9,1.5) = %s, pinned %s", a, want)
	}

	w, err := looppoint.BuildWorkload("demo-matrix-1", looppoint.WorkloadOptions{Input: "test", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for i := 0; i < 2; i++ {
		sel, err := looppoint.Analyze(w, looppoint.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, selectionDigest(sel))
	}
	if digests[0] != digests[1] {
		t.Errorf("two analyses of one program gave digests %v", digests)
	}
}

func TestCheckerFirstRunAndGolden(t *testing.T) {
	c := &checker{first: map[string]string{}, golden: map[string]string{"w/a": "1"}}
	if why := c.check("w/a", "1"); why != "" {
		t.Errorf("golden match refused: %s", why)
	}
	if why := c.check("w/a", "2"); why == "" {
		t.Error("a digest that differs from the first run was accepted")
	}
	if why := c.check("w/b", "1"); why == "" {
		t.Error("a job with no golden digest was accepted")
	}
	c = &checker{first: map[string]string{}, golden: map[string]string{"w/a": "1"}}
	if why := c.check("w/a", "2"); why == "" {
		t.Error("a digest that differs from the golden file was accepted")
	}
}

func TestGoldenCoversEveryJob(t *testing.T) {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	perWorkload := map[string]int{}
	for k := range golden {
		perWorkload[strings.SplitN(k, "/", 2)[0]]++
	}
	want := map[string]int{"ref-select": 2, "train-validate": 4, "checkpoint-reuse": 6,
		"fleet-campaign": 4 * len(looppoint.Workloads())}
	if !reflect.DeepEqual(perWorkload, want) {
		t.Errorf("golden.json covers %v, want %v", perWorkload, want)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// BENCHMARK.json and the code must name the same workloads and metrics,
// with the same units, directions and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %+v, the code %+v", b.EndToEnd, endToEnd)
	}
	hasSetup := false
	for _, d := range endToEnd {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if p := b.PerLayer[i]; p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the code %+v", i, p, d)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths %v", b.Paths)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--seed", "3", "--seconds", "20", "--trace", "1"})
	want := []string{"--workload", "x", "--seed", "3", "--seconds", "20", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	got = normalizeArgs([]string{"-trace", "-quick"})
	if !reflect.DeepEqual(got, []string{"-trace", "-quick"}) {
		t.Errorf("bare -trace was rewritten: %v", got)
	}
}

// One quick round of every workload, plain and traced: every metric the
// benchmark names is emitted, and nothing fails.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			check, err := newChecker(1, true, false)
			if err != nil {
				t.Fatal(err)
			}
			e := &env{seed: 1, quick: true, scratch: t.TempDir(), check: check}
			res, err := runPass(w, e, 1, traced)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, d.Name)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
			if traced {
				if cov := res.Metrics["trace.coverage"]; cov.Samples == 0 {
					t.Errorf("%s: no trace.coverage", w.name)
				}
			}
		}
	}
	t.Logf("quick smoke took %v", time.Since(start)) // sized for well under 10 s
}
