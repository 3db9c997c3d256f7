package timing_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"testing"

	"looppoint/internal/core"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

const opMixGoldenFile = "testdata/opmix_golden.json"

// opMixShort are the workloads -short keeps: the lock-heavy 657.xz_s.2,
// a float-heavy SPEC app and an NPB kernel.
var opMixShort = map[string]bool{"657.xz_s.2": true, "621.wrf_s.1": true, "npb-cg": true}

// TestOpMixGolden pins the Stats of every simulation entry point over the
// op mix of the real workloads: every registered workload at test input,
// four threads, both wait policies, on the out-of-order and the in-order
// core. Per (workload, policy, core) it runs SimulateFull, SimulateFullTap
// at the first looppoint's end marker, SimulateCheckpoint on every point
// of the default selection, SimulateRegion without warm-up on the first
// point, SimulatePeriodic over the whole run and SimulateConstrained on
// the first point's checkpoint. Each Stats is pinned as the FNV-1a digest
// of its JSON, so any charge rule that moves one bit fails here: the FP,
// divide and square-root charges, atomics, the lock paths and the
// in-order core that stats_golden.json (one synthetic program, one core)
// never reaches. testprog.EveryOp adds the ops no workload executes, FSub
// among them. -short runs three of the workloads and EveryOp.
// Regenerate with: go test ./internal/timing/ -run OpMixGolden -update
func TestOpMixGolden(t *testing.T) {
	var want map[string]string
	if !*timing.UpdateGolden {
		data, err := os.ReadFile(opMixGoldenFile)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", opMixGoldenFile, err)
		}
	}
	var mu sync.Mutex
	got := map[string]string{}
	run := func(t *testing.T, name string, prog *isa.Program) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for key, sum := range opMixDigests(t, prog) {
				key = name + "/" + key
				mu.Lock()
				got[key] = sum
				mu.Unlock()
				if want != nil && want[key] != sum {
					t.Errorf("%s: Stats digest %s, golden %s", key, sum, want[key])
				}
			}
		})
	}
	t.Run("apps", func(t *testing.T) {
		run(t, "every-op", testprog.EveryOp())
		for _, spec := range workloads.All() {
			if testing.Short() && !opMixShort[spec.Name] {
				continue
			}
			for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
				app, err := spec.Build(workloads.BuildParams{Threads: 4, Input: workloads.InputTest, Policy: policy})
				if err != nil {
					t.Fatal(err)
				}
				run(t, fmt.Sprintf("%s/%v", spec.Name, policy), app.Prog)
			}
		}
	})
	if *timing.UpdateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(opMixGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !testing.Short() && len(got) != len(want) {
		var missing []string
		for key := range want {
			if _, ok := got[key]; !ok {
				missing = append(missing, key)
			}
		}
		sort.Strings(missing)
		t.Errorf("%s pins %d simulations, the test ran %d; not run: %v", opMixGoldenFile, len(want), len(got), missing)
	}
}

// opMixDigests runs one program's simulations on both cores and returns
// each Stats' digest by name.
func opMixDigests(t *testing.T, prog *isa.Program) map[string]string {
	t.Helper()
	cfg := core.DefaultConfig()
	a, err := core.Analyze(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.Select(a)
	if err != nil {
		t.Fatal(err)
	}
	cks, err := a.Pinball.ExtractRegions(prog, sel.RegionSpecs())
	if err != nil {
		t.Fatal(err)
	}
	first := sel.Points[0].Region

	out := map[string]string{}
	for _, c := range []struct {
		name string
		cfg  timing.Config
	}{
		{"ooo", timing.Gainestown(prog.NumThreads())},
		{"inorder", timing.InOrderConfig(prog.NumThreads())},
	} {
		sim, err := timing.New(c.cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		sim.Seed = a.Config.Seed
		pin := func(key string, st *timing.Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, key, err)
			}
			data, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(data)
			out[c.name+"/"+key] = fmt.Sprintf("%016x", h.Sum64())
		}

		st, err := sim.SimulateFull()
		pin("full", st, err)
		var tapped *timing.Stats
		_, err = sim.SimulateFullTap(first.End, func(st *timing.Stats) { tapped = st })
		if err == nil && tapped == nil {
			t.Fatalf("%s: tap at %v never fired", c.name, first.End)
		}
		pin("full-tap", tapped, err)
		for i, ck := range cks {
			st, err := sim.SimulateCheckpoint(ck)
			pin(fmt.Sprintf("checkpoint-%d", sel.Points[i].Region.Index), st, err)
		}
		st, err = sim.SimulateRegion(first.Start, first.End, timing.WarmupNone)
		pin("region-cold", st, err)
		st, err = sim.SimulatePeriodic(2000, 20000)
		pin("periodic", st, err)
		st, err = sim.SimulateConstrained(cks[0])
		pin("constrained", st, err)
	}
	return out
}
