package simpoint_test

// Golden regression pin for selection engines. The JSON under testdata/
// records, for seeded synthetic populations, everything a selection
// determines downstream: chosen k, cluster assignments, representative
// draws, and full-precision stratum/draw weights. The comparison is on
// exact file bytes (Go's float64 JSON encoding is shortest-round-trip,
// so equal bytes means equal bits) — the "simpoint" entries pin the
// medoid rule's selections byte for byte, and the
// "stratified" entries pin the seeded draw streams so an innocent
// refactor of the permutation or allocation code cannot silently
// reshuffle every published selection.
//
// Regenerate deliberately with:
//
//	go test ./internal/simpoint/ -run TestGoldenSelections -update-golden

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"looppoint/internal/simpoint"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the selection golden file instead of comparing")

type goldenDraw struct {
	Index   int     `json:"index"`
	Stratum int     `json:"stratum"`
	Weight  float64 `json:"weight"`
}

type goldenEntry struct {
	Fixture string       `json:"fixture"`
	Engine  string       `json:"engine"`
	K       int          `json:"k,omitempty"`
	Assign  []int        `json:"assign,omitempty"`
	Reps    []int        `json:"reps,omitempty"`
	Draws   []goldenDraw `json:"draws"`
	Weights []float64    `json:"stratum_weights"`
}

const goldenPath = "testdata/selections_golden.json"

func TestGoldenSelections(t *testing.T) {
	fixtures := []struct {
		name      string
		seed      uint64
		n, k, dim int
		jitter    float64
		budget    int
	}{
		{"clustered-small", 101, 30, 3, 5, 1.5, 0},
		{"clustered-large", 202, 80, 5, 8, 3.0, 24},
		{"ties", 303, 24, 2, 4, 0.0, 10},
	}
	var entries []goldenEntry
	for _, fx := range fixtures {
		vectors, weights := synthPopulation(fx.seed, fx.n, fx.k, fx.dim, fx.jitter)
		for _, engine := range []string{"simpoint", "stratified"} {
			sel, err := simpoint.Select(engine, vectors, weights,
				simpoint.Options{MaxK: 8, Seed: fx.seed},
				simpoint.SelectorOpts{Budget: fx.budget})
			if err != nil {
				t.Fatalf("%s/%s: %v", fx.name, engine, err)
			}
			e := goldenEntry{Fixture: fx.name, Engine: engine}
			if sel.Result != nil {
				e.K = sel.Result.K
				e.Assign = sel.Result.Assign
				e.Reps = sel.Result.Reps
			}
			for _, dr := range sel.Regions {
				e.Draws = append(e.Draws, goldenDraw{dr.Index, dr.Stratum, dr.Weight})
			}
			for _, st := range sel.Strata {
				e.Weights = append(e.Weights, st.Weight)
			}
			entries = append(entries, e)
		}
	}
	got, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d entries)", goldenPath, len(entries))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden after a deliberate selection change)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("selections diverged from %s — selections must stay byte-identical across refactors; if this change is deliberate, regenerate with -update-golden and call it out in review", goldenPath)
	}
}
