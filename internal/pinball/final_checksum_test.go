package pinball

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/workloads"
)

// TestFinalChecksumsGolden pins what every registered workload computes:
// the memory checksum at the end of a seed-1 recording at test input, four
// threads, under both wait policies, and of testprog.EveryOp, whose loop
// executes the ops no workload does (OpFSub). Nothing else pins a program's
// results, so a change to an instruction's semantics (OpFMA fused into one
// rounding, OpFCvtI saturating) fails here and nowhere else.
// Regenerate with: go test ./internal/pinball/ -run FinalChecksums -update
func TestFinalChecksumsGolden(t *testing.T) {
	got := map[string]string{}
	pb, err := Record(testprog.EveryOp(), 1, 0)
	if err != nil {
		t.Fatalf("every-op: %v", err)
	}
	got["every-op"] = fmt.Sprintf("%#016x", pb.FinalChecksum)
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		for _, spec := range workloads.All() {
			app, err := spec.Build(workloads.BuildParams{Threads: 4, Input: workloads.InputTest, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			pb, err := Record(app.Prog, 1, 0)
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, policy, err)
			}
			got[fmt.Sprintf("%s/%v", spec.Name, policy)] = fmt.Sprintf("%#016x", pb.FinalChecksum)
		}
	}
	golden := filepath.Join("testdata", "final_checksums.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: final checksum %s, golden %s", name, got[name], sum)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no golden final checksum (regenerate with -update)", name)
		}
	}
}
