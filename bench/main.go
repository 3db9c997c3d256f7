// Command bench is lpbench, the repository's one end-to-end benchmark:
// four long workloads, four gating host-time metrics on each, and a
// traced mode that attributes a job's time to the layers under it. See
// README.md in this directory for the workloads, the metrics and how the
// bounds were derived.
//
//	go run -C bench .                       # every workload, end-to-end metrics
//	go run -C bench . -trace                # ... and the per-layer metrics
//	go run -C bench . -workload ref-select -seed 3 -seconds 20 -trace 0
//	go run -C bench . -aa 10                # A/A: is the benchmark steady?
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// hostInfo is attached to every machine-written result.
type hostInfo struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	ScratchFS  string `json:"scratch_fs"`
}

// resultFile is what -out writes.
type resultFile struct {
	Host    hostInfo      `json:"host"`
	Time    string        `json:"time"`
	Seed    int64         `json:"seed"`
	Seconds float64       `json:"seconds"`
	Metrics []metricDef   `json:"end_to_end"`
	Layers  []metricDef   `json:"per_layer"`
	Passes  []*passResult `json:"passes"`
}

// benchDir is the directory of the benchmark's sources, which is where
// golden.json lives and, one level up, the checkout the scratch files
// stay inside.
func benchDir() string {
	if _, file, _, ok := runtime.Caller(0); ok {
		dir := filepath.Dir(file)
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
	}
	wd, _ := os.Getwd()
	return wd
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown",
		ScratchFS: fsName(filepath.Join(benchDir(), ".."))}
	h.Host, _ = os.Hostname()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// normalizeArgs lets -trace be given as a bare flag or, as the benchmark
// driver does, with a separate 0 or 1 after it.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	quick        bool
	aa           int
	out          string
	updateGolden bool
}

func main() {
	var o options
	fs := flag.NewFlagSet("lpbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: all, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every library job and of the job order")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long each workload's timed section lasts")
	fs.BoolVar(&o.trace, "trace", false, "report the per-layer metrics from staged rounds")
	fs.BoolVar(&o.quick, "quick", false, "one round of small inputs per workload (a smoke test, not a measurement)")
	fs.IntVar(&o.aa, "aa", 0, "run the whole suite N times and report each metric's spread against its bound")
	fs.StringVar(&o.out, "out", "", "write host, raw samples and every metric to this JSON file")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite golden.json from this run (benchmark PRs only; use -seed 1)")
	fs.Parse(normalizeArgs(os.Args[1:]))
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lpbench: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}

	var err error
	switch {
	case o.workload != "":
		err = runOne(o)
	case o.aa > 0:
		err = runAA(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpbench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints, as the last
// line of standard output, the result object the benchmark driver reads.
func runOne(o options) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	// Two cores on every host, so results compare across hosts and no
	// layer ever has more runnable work than the reference host has CPUs.
	runtime.GOMAXPROCS(2)
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	check, err := newChecker(o.seed, o.quick, o.updateGolden)
	if err != nil {
		return err
	}
	e := &env{seed: o.seed, quick: o.quick, scratch: scratch, check: check}
	res, err := runPass(w, e, o.seconds, o.trace)
	if err != nil {
		return err
	}
	printPass(os.Stdout, res)
	if o.updateGolden && res.Failed == 0 {
		if err := check.writeGolden(); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := writeResults(o, []*passResult{res}); err != nil {
			return err
		}
	}

	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]driverMetric{}}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		line.Metrics[d.Name] = driverMetric{res.Metrics[d.Name].Value, d.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

func writeResults(o options, passes []*passResult) error {
	rf := resultFile{Host: host(), Time: time.Now().UTC().Format(time.RFC3339), Seed: o.seed,
		Seconds: o.seconds, Metrics: endToEnd, Layers: perLayer, Passes: passes}
	buf, err := json.Marshal(rf)
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(buf, '\n'), 0o644)
}

// child runs one workload in a process of its own, so no workload sees
// the heap, the caches or the leftover goroutines of another. The child's
// report goes to out; its full result comes back through a file.
func child(o options, name string, seed int64, traced bool, out io.Writer) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	scratch, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	file := filepath.Join(scratch, "result.json")
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		fmt.Sprintf("-trace=%t", traced), "-out", file}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // no orphan if this process is killed
	runErr := cmd.Run()
	data, err := os.ReadFile(file)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil || len(rf.Passes) != 1 {
		return nil, fmt.Errorf("%s: unreadable child result: %v", name, err)
	}
	return rf.Passes[0], nil
}

// printReport forwards a child's report without the driver's JSON line.
func printReport(report *bytes.Buffer) {
	for _, l := range strings.SplitAfter(report.String(), "\n") {
		if !strings.HasPrefix(l, `{"correct"`) {
			io.WriteString(os.Stdout, l)
		}
	}
}

// runSuite runs every workload, and with -trace the traced pass after it.
func runSuite(o options) error {
	var passes []*passResult
	failed := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && !o.trace {
				continue
			}
			var report bytes.Buffer
			res, err := child(o, w.name, o.seed, traced, &report)
			printReport(&report)
			if err != nil {
				return err
			}
			passes = append(passes, res)
			failed += res.Failed
		}
	}
	if o.out != "" {
		if err := writeResults(o, passes); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// worse is how much b is worse than a, as a share of a, in the metric's
// own direction.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs the suite N times on the same commit: the first half on the
// seeds seed, seed+1, ..., the second half on the same seeds again, which
// is how the acceptance check of the benchmark compares two commits. It
// prints each metric's median, quartiles and spread, and fails when the
// halves disagree by more than the metric's bound.
func runAA(o options) error {
	if o.aa < 4 {
		return fmt.Errorf("-aa needs at least 4 runs, two per half")
	}
	half := o.aa / 2
	values := map[string][][]float64{} // workload/metric → half → values
	var passes []*passResult
	for run := 0; run < 2*half; run++ {
		h, seed := run/half, o.seed+int64(run%half)
		for _, w := range workloads {
			res, err := child(o, w.name, seed, false, io.Discard)
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d operations failed: %v", w.name, seed, res.Failed, res.Failures)
			}
			passes = append(passes, res)
			for _, d := range endToEnd {
				key := w.name + "/" + d.Name
				if values[key] == nil {
					values[key] = make([][]float64, 2)
				}
				values[key][h] = append(values[key][h], res.Metrics[d.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "aa: run %d/%d %s seed %d done\n", run+1, 2*half, w.name, seed)
		}
	}
	fmt.Printf("A/A over %d runs per half, %.0f s timed each (spread = (q3-q1)/median of a half; drift = second median worse than first)\n", half, o.seconds)
	fmt.Printf("%-18s %-14s %12s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread1", "spread2", "drift", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := values[w.name+"/"+d.Name]
			q1, q3 := quartiles(v[0])
			s1, s2 := relSpread(v[0]), relSpread(v[1])
			drift := worse(d, median(v[0]), median(v[1]))
			verdict := "ok"
			switch {
			case drift > d.Bound:
				verdict = "HALVES DISAGREE"
				bad++
			case d.Name != "setup_s" && (s1 > d.Bound || s2 > d.Bound):
				verdict = "SPREAD OVER BOUND"
				bad++
			case d.Name != "setup_s" && (s1 > d.Bound/3 || s2 > d.Bound/3):
				verdict = "ok (spread over a third of the bound)"
			}
			fmt.Printf("%-18s %-14s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				w.name, d.Name, median(v[0]), q1, q3, 100*s1, 100*s2, 100*drift, 100*d.Bound, verdict)
		}
	}
	if o.out != "" {
		if err := writeResults(o, passes); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric cells are not steady enough for their bound", bad)
	}
	return nil
}
