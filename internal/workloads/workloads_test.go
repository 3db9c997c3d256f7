package workloads

import (
	"strings"
	"testing"

	"looppoint/internal/exec"
	"looppoint/internal/omp"
)

func runApp(t *testing.T, app *App) *exec.Machine {
	t.Helper()
	m := exec.NewMachine(app.Prog, 1)
	if err := m.Run(exec.RunOpts{FlowWindow: 4096, MaxSteps: 500_000_000}); err != nil {
		t.Fatalf("%s: run: %v", app.Prog.Name, err)
	}
	return m
}

func TestAllWorkloadsBuildAndRun(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
				app, err := spec.Build(BuildParams{Input: smallInput(spec), Policy: policy})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				m := runApp(t, app)
				if !m.Done() {
					t.Fatalf("policy %v: did not finish", policy)
				}
				if m.TotalICount() == 0 {
					t.Fatalf("policy %v: no instructions", policy)
				}
			}
		})
	}
}

func smallInput(s Spec) InputClass {
	if s.Suite == "npb" {
		return ClassA
	}
	return InputTest
}

func TestSuiteMembership(t *testing.T) {
	if got := len(SpecSuite()); got != 14 {
		t.Errorf("SPEC suite has %d workloads, want 14 (paper Figure 5)", got)
	}
	if got := len(NPBSuite()); got != 9 {
		t.Errorf("NPB suite has %d workloads, want 9 (dc excluded)", got)
	}
	if _, ok := Lookup("657.xz_s.2"); !ok {
		t.Error("657.xz_s.2 missing")
	}
	if _, ok := Lookup("npb-dc"); ok {
		t.Error("npb-dc must not be registered (excluded by the paper)")
	}
	if _, ok := Lookup("demo-matrix-1"); !ok {
		t.Error("demo-matrix-1 missing")
	}
}

func TestInputScalingGrowsWork(t *testing.T) {
	spec, _ := Lookup("619.lbm_s.1")
	var prev uint64
	for _, in := range []InputClass{InputTest, InputTrain, InputRef} {
		app, err := spec.Build(BuildParams{Input: in, Policy: omp.Passive})
		if err != nil {
			t.Fatal(err)
		}
		m := runApp(t, app)
		n := m.TotalICount()
		if n <= prev {
			t.Errorf("input %s: %d instructions not larger than previous %d", in, n, prev)
		}
		prev = n
	}
	// Ref must be much larger than train (paper: full ref runs are
	// impractical to simulate; at our scale the ratio is ~20x).
	appTrain, _ := spec.Build(BuildParams{Input: InputTrain, Policy: omp.Passive})
	appRef, _ := spec.Build(BuildParams{Input: InputRef, Policy: omp.Passive})
	nt := runApp(t, appTrain).TotalICount()
	nr := runApp(t, appRef).TotalICount()
	if float64(nr) < 8*float64(nt) {
		t.Errorf("ref/train instruction ratio %.1f < 8", float64(nr)/float64(nt))
	}
}

func TestThreadCountsRespected(t *testing.T) {
	xz1, _ := Lookup("657.xz_s.1")
	app, err := xz1.Build(BuildParams{Threads: 8, Policy: omp.Passive})
	if err != nil {
		t.Fatal(err)
	}
	if app.Prog.NumThreads() != 1 {
		t.Errorf("657.xz_s.1 built with %d threads, want 1", app.Prog.NumThreads())
	}
	xz2, _ := Lookup("657.xz_s.2")
	app2, err := xz2.Build(BuildParams{Threads: 8, Policy: omp.Passive})
	if err != nil {
		t.Fatal(err)
	}
	if app2.Prog.NumThreads() != 4 {
		t.Errorf("657.xz_s.2 built with %d threads, want 4", app2.Prog.NumThreads())
	}
	bt, _ := Lookup("npb-bt")
	for _, n := range []int{8, 16} {
		a, err := bt.Build(BuildParams{Threads: n, Input: ClassA, Policy: omp.Passive})
		if err != nil {
			t.Fatal(err)
		}
		if a.Prog.NumThreads() != n {
			t.Errorf("npb-bt built with %d threads, want %d", a.Prog.NumThreads(), n)
		}
		runApp(t, a)
	}
}

func TestXzHeterogeneity(t *testing.T) {
	spec, _ := Lookup("657.xz_s.2")
	app, err := spec.Build(BuildParams{Input: InputTrain, Policy: omp.Passive})
	if err != nil {
		t.Fatal(err)
	}
	m := runApp(t, app)
	// Thread 3 must retire substantially more than thread 1 (Figure 3's
	// non-homogeneous behaviour; thread 0 is skipped because it also
	// runs the one-time data initialization).
	t1, t3 := m.Threads[1].ICount, m.Threads[3].ICount
	if float64(t3) < 1.5*float64(t1) {
		t.Errorf("xz_s.2 not heterogeneous: t1=%d t3=%d", t1, t3)
	}
}

func TestDeterministicExecution(t *testing.T) {
	spec, _ := Lookup("644.nab_s.1")
	counts := make([]uint64, 2)
	for i := range counts {
		app, err := spec.Build(BuildParams{Input: InputTest, Policy: omp.Active})
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = runApp(t, app).TotalICount()
	}
	if counts[0] != counts[1] {
		t.Errorf("non-deterministic build/run: %d vs %d", counts[0], counts[1])
	}
}

func TestDefaultInputs(t *testing.T) {
	spec, _ := Lookup("npb-cg")
	app, err := spec.Build(BuildParams{Policy: omp.Passive})
	if err != nil {
		t.Fatal(err)
	}
	if app.Params.Input != ClassC {
		t.Errorf("NPB default input %s, want C", app.Params.Input)
	}
	spec2, _ := Lookup("619.lbm_s.1")
	app2, err := spec2.Build(BuildParams{Policy: omp.Passive})
	if err != nil {
		t.Fatal(err)
	}
	if app2.Params.Input != InputTrain {
		t.Errorf("SPEC default input %s, want train", app2.Params.Input)
	}
	if app2.Params.Threads != 8 {
		t.Errorf("default threads %d, want 8", app2.Params.Threads)
	}
}

func TestSyncMatrixMatchesTableIII(t *testing.T) {
	// Spot-check the Table III encoding.
	cases := map[string]SyncSet{
		"619.lbm_s.1":       {Sta4: true},
		"607.cactuBSSN_s.1": {Sta4: true, Dyn4: true, Bar: true, Red: true, At: true},
		"621.wrf_s.1":       {Dyn4: true, Ma: true},
		"657.xz_s.2":        {Lck: true},
	}
	for name, want := range cases {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if s.Sync != want {
			t.Errorf("%s sync = %+v, want %+v", name, s.Sync, want)
		}
	}
}

// TestUnknownInputClassRejected: a misspelled input class is an error at
// Check and at Build, never a silent test-size build under its own name.
func TestUnknownInputClassRejected(t *testing.T) {
	for _, in := range []InputClass{InputTest, InputTrain, InputRef, ClassA, ClassC, ClassD} {
		if err := in.Check(); err != nil {
			t.Errorf("%s: %v", in, err)
		}
	}
	err := InputClass("tset").Check()
	if err == nil || !strings.Contains(err.Error(), `"tset"`) || !strings.Contains(err.Error(), "train") {
		t.Fatalf("Check(tset) = %v, want an error naming tset and the classes", err)
	}
	spec, _ := Lookup("npb-cg")
	if _, err := spec.Build(BuildParams{Input: "tset", Policy: omp.Passive}); err == nil {
		t.Fatal("Build at input tset succeeded")
	}
}
