package looppoint

import (
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"looppoint/internal/pinball"
)

// goRun executes one of the repository's commands via `go run`.
func goRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := goRunErr(args...)
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return out
}

// goRunErr executes a command and returns its combined output and exit
// error (nil on success) — the variant fault-tolerance tests use to
// assert on nonzero exits.
func goRunErr(args ...string) (string, error) {
	out, err := exec.Command("go", append([]string{"run"}, args...)...).CombinedOutput()
	return string(out), err
}

func TestCmdLooppointList(t *testing.T) {
	out := goRun(t, "./cmd/looppoint", "-list")
	for _, want := range []string{"603.bwaves_s.1", "657.xz_s.2", "npb-mg", "demo-matrix-1"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %s", want)
		}
	}
}

func TestCmdLooppointDemoEndToEnd(t *testing.T) {
	out := goRun(t, "./cmd/looppoint", "-p", "demo-matrix-1", "-n", "4", "-i", "test")
	for _, want := range []string{"regions profiled", "looppoints selected", "runtime error", "theoretical speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("driver output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdLpprofile(t *testing.T) {
	out := goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-1", "-n", "4", "-i", "test", "-slice", "2000", "-regions")
	if !strings.Contains(out, "selected looppoints") || !strings.Contains(out, "all regions") {
		t.Errorf("lpprofile output incomplete:\n%s", out)
	}
	csv := goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-1", "-n", "4", "-i", "test", "-csv")
	if !strings.Contains(csv, "region,start,end") {
		t.Errorf("lpprofile CSV header missing:\n%s", csv)
	}
}

// TestCmdSelectorClosedSet pins the one engine list: Selectors returns
// exactly the three engines, lpprofile's -selector help is built from it,
// and a name outside it (the retired barrierpoint alias of the medoid
// rule) exits non-zero with an error naming the three.
func TestCmdSelectorClosedSet(t *testing.T) {
	engines := []string{"simpoint", "stratified", "timebased"}
	if got := Selectors(); !reflect.DeepEqual(got, engines) {
		t.Fatalf("Selectors() = %v, want %v", got, engines)
	}
	out, err := goRunErr("./cmd/lpprofile", "-p", "demo-matrix-1", "-n", "2", "-i", "test", "-selector", "barrierpoint")
	if err == nil {
		t.Fatalf("lpprofile -selector barrierpoint succeeded:\n%s", out)
	}
	if !strings.Contains(out, `unknown selector "barrierpoint" (have [simpoint stratified timebased])`) {
		t.Errorf("rejection does not name the three engines:\n%s", out)
	}
	help, _ := goRunErr("./cmd/lpprofile", "-h")
	if !strings.Contains(help, "selection engine: simpoint, stratified, timebased (default simpoint)") {
		t.Errorf("-selector help does not list the three engines:\n%s", help)
	}
}

func TestCmdLpsim(t *testing.T) {
	out := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-1", "-n", "4", "-i", "test")
	for _, want := range []string{"instructions", "cycles", "IPC", "L2 MPKI"} {
		if !strings.Contains(out, want) {
			t.Errorf("lpsim output missing %q:\n%s", want, out)
		}
	}
	inorder := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-1", "-n", "4", "-i", "test", "-inorder")
	if !strings.Contains(inorder, "inorder") {
		t.Errorf("in-order flag ignored:\n%s", inorder)
	}
}

func TestCmdLpreportTables(t *testing.T) {
	out := goRun(t, "./cmd/lpreport", "-figures", "tables")
	for _, want := range []string{"Table I", "Table II", "Table III", "Gainestown"} {
		if !strings.Contains(out, want) {
			t.Errorf("lpreport tables missing %q", want)
		}
	}
}

func TestCmdCheckpointWorkflow(t *testing.T) {
	dir := t.TempDir()
	out := goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-slice", "3000", "-save-regions", dir, "-save-pinball", dir+"/whole.pinball")
	if !strings.Contains(out, "wrote whole-program pinball") || !strings.Contains(out, ".pinball (region") {
		t.Fatalf("lpprofile did not export checkpoints:\n%s", out)
	}
	// Find an exported region pinball and simulate it with lpsim.
	var region string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "wrote ") && strings.Contains(line, ".r") {
			region = strings.Fields(line)[1]
			break
		}
	}
	if region == "" {
		t.Fatalf("no region pinball path in output:\n%s", out)
	}
	sim := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", region)
	if !strings.Contains(sim, "cycles") || !strings.Contains(sim, "IPC") {
		t.Fatalf("lpsim checkpoint output incomplete:\n%s", sim)
	}
	constrained := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", region, "-constrained")
	if !strings.Contains(constrained, "cycles") {
		t.Fatalf("lpsim constrained output incomplete:\n%s", constrained)
	}
	// Directory mode: every pinball in the directory simulates on the
	// worker pool, with per-file lines and an aggregate speedup summary.
	dirSim := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", dir, "-j", "4")
	for _, want := range []string{"checkpoints of demo-matrix-2", "speedup", "host wall", ".pinball"} {
		if !strings.Contains(dirSim, want) {
			t.Fatalf("lpsim directory checkpoint output missing %q:\n%s", want, dirSim)
		}
	}
	// The sweep must report the same per-file results, in the same name
	// order, at any -j width.
	narrowSim := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", dir, "-j", "2")
	if reportLines(dirSim) != reportLines(narrowSim) {
		t.Fatalf("directory sweep reports differ between -j 4 and -j 2:\n--- -j 4:\n%s\n--- -j 2:\n%s",
			dirSim, narrowSim)
	}
	// -mmap selected a second loader of identical output; it is gone.
	if out, err := goRunErr("./cmd/lpsim", "-mmap"); err == nil || !strings.Contains(out, "flag provided but not defined") {
		t.Fatalf("lpsim -mmap: err = %v, want an undefined-flag exit:\n%s", err, out)
	}
}

// reportLines strips the host-timing fields ([host ...], wall-clock
// summary) from a directory-sweep report, leaving only the
// deterministic simulation results for comparison across runs.
func reportLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "[host"); i >= 0 {
			line = strings.TrimRight(line[:i], " ")
		}
		if strings.Contains(line, "host wall") || strings.Contains(line, "speedup") ||
			strings.Contains(line, "workers") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestCmdLpsimQuarantine corrupts one exported region pinball and
// requires directory-mode lpsim to quarantine it, finish the remaining
// checkpoints, and gate its exit status on -min-coverage.
func TestCmdLpsimQuarantine(t *testing.T) {
	dir := t.TempDir()
	out := goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-slice", "3000", "-save-regions", dir, "-verify")
	if !strings.Contains(out, "verified") {
		t.Fatalf("lpprofile -verify did not confirm the artifacts:\n%s", out)
	}
	pinballs, err := filepath.Glob(filepath.Join(dir, "*.pinball"))
	if err != nil || len(pinballs) < 2 {
		t.Fatalf("need >= 2 exported pinballs, got %v (%v)", pinballs, err)
	}
	// Flip one bit in the middle of the first pinball.
	data, err := os.ReadFile(pinballs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(pinballs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Tolerant threshold: the sweep quarantines the bad pinball, keeps
	// going, and exits zero.
	sim, err := goRunErr("./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", dir, "-min-coverage", "0.5")
	if err != nil {
		t.Fatalf("lpsim with tolerant -min-coverage failed: %v\n%s", err, sim)
	}
	for _, want := range []string{"QUARANTINED", "quarantined    1 of", "checkpoints of demo-matrix-2"} {
		if !strings.Contains(sim, want) {
			t.Errorf("quarantine output missing %q:\n%s", want, sim)
		}
	}

	// Default threshold (1.0): same sweep must exit nonzero.
	strict, err := goRunErr("./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", dir)
	if err == nil {
		t.Fatalf("lpsim accepted lost coverage at -min-coverage 1.0:\n%s", strict)
	}
	if !strings.Contains(strict, "below -min-coverage") {
		t.Errorf("strict run does not explain the coverage failure:\n%s", strict)
	}
}

// TestCmdLpsimSimFailureQuarantine saves a region pinball whose end
// marker count is never reached — a simulation that fails for a reason in
// its input, nothing injected — and requires directory-mode lpsim to
// quarantine that checkpoint with its simulation error and finish the
// rest: a checkpoint simulation runs once, and the quarantine is what
// absorbs its failure.
func TestCmdLpsimSimFailureQuarantine(t *testing.T) {
	dir := t.TempDir()
	goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-slice", "3000", "-save-regions", dir)
	pinballs, err := filepath.Glob(filepath.Join(dir, "*.pinball"))
	if err != nil || len(pinballs) < 2 {
		t.Fatalf("need >= 2 exported pinballs, got %v (%v)", pinballs, err)
	}
	bad := ""
	for _, f := range pinballs {
		pb, err := pinball.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		if end := pb.Region.End; end.IsEnd || end.IsICount() {
			continue
		}
		pb.Region.End.Count = 1 << 62
		if err := pb.Save(f); err != nil {
			t.Fatal(err)
		}
		bad = filepath.Base(f)
		break
	}
	if bad == "" {
		t.Fatal("no exported pinball ends at a PC marker; the test needs one")
	}
	out, err := goRunErr("./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", dir, "-min-coverage", "0.1")
	if err != nil {
		t.Fatalf("sweep with an unreachable end marker failed outright: %v\n%s", err, out)
	}
	quarantined := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, bad) {
			quarantined = strings.Contains(line, "QUARANTINED") && strings.Contains(line, "end marker")
		}
	}
	if !quarantined || !strings.Contains(out, "quarantined    1 of") {
		t.Fatalf("the unreachable end marker did not quarantine exactly %s:\n%s", bad, out)
	}
}

// TestCmdLpcoordLearnsSlots: lpcoord has no per-worker concurrency flag —
// it keeps as many claims in flight to a worker as the worker's /readyz
// advertises — so the old one is rejected as undefined.
func TestCmdLpcoordLearnsSlots(t *testing.T) {
	out, err := goRunErr("./cmd/lpcoord", "-worker-inflight", "2")
	if err == nil || !strings.Contains(out, "flag provided but not defined") {
		t.Fatalf("lpcoord -worker-inflight: err = %v, want an undefined-flag exit:\n%s", err, out)
	}
}

// TestCmdLpcoordRejectsSimulate: the job classes are analyze and report,
// lpcoord's -class help is built from that list, and a campaign of any
// other class exits non-zero naming the two before a single claim reaches
// a worker.
func TestCmdLpcoordRejectsSimulate(t *testing.T) {
	var claims atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/claim" {
			claims.Add(1)
		}
		w.Write([]byte(`{"ready":true,"slots":1}`))
	}))
	defer worker.Close()
	out, err := goRunErr("./cmd/lpcoord", "-workers", worker.URL, "-apps", "npb-cg", "-class", "simulate")
	if err == nil {
		t.Fatalf("lpcoord -class simulate succeeded:\n%s", out)
	}
	if !strings.Contains(out, `unknown class "simulate" (want one of [analyze report])`) {
		t.Errorf("rejection does not name the two classes:\n%s", out)
	}
	if n := claims.Load(); n != 0 {
		t.Errorf("%d claims reached the worker before the spec was rejected", n)
	}
	help, _ := goRunErr("./cmd/lpcoord", "-h")
	if !strings.Contains(help, "job class for -apps campaigns: analyze or report") {
		t.Errorf("-class help does not list the two classes:\n%s", help)
	}
}

// TestCmdLpreportQuickHeadersGolden runs the whole quick report on
// test-class inputs with a parallel pool and pins the section headers
// against a golden file: every experiment must be present, titled as
// the paper's artifact, and unaffected by the -j width.
func TestCmdLpreportQuickHeadersGolden(t *testing.T) {
	out := goRun(t, "./cmd/lpreport", "-quick", "-input", "test", "-slice", "2000", "-j", "4")
	var got strings.Builder
	for _, line := range strings.Split(out, "\n") {
		for _, prefix := range []string{"Table ", "Fig", "Section ", "SecV", "Ablation:"} {
			if strings.HasPrefix(line, prefix) {
				got.WriteString(line)
				got.WriteByte('\n')
				break
			}
		}
	}
	want, err := os.ReadFile("testdata/lpreport_quick_headers.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("section headers differ from testdata/lpreport_quick_headers.golden:\ngot:\n%swant:\n%s",
			got.String(), want)
	}
}

func TestCmdLpprofileDisasmAndDot(t *testing.T) {
	out := goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-1", "-n", "2", "-i", "test", "-disasm")
	if !strings.Contains(out, "image main") || !strings.Contains(out, "routine omp_barrier") {
		t.Fatalf("disassembly incomplete:\n%.400s", out)
	}
	dir := t.TempDir()
	dot := dir + "/g.dot"
	goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-1", "-n", "2", "-i", "test", "-slice", "3000", "-dot", dot)
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "digraph dcfg {") {
		t.Fatalf("bad DOT file: %.100s", data)
	}
}
