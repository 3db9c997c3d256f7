package dcfg

import (
	"encoding/json"
	"reflect"
	"testing"

	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

// FuzzRestoreGraph hardens the one decoder on the resume path that reads
// structure, not bytes: a saved graph record has passed its checksum, so
// whatever RestoreGraph accepts goes straight into loop finding and marker
// selection. Arbitrary JSON must be rejected or yield a graph those passes
// survive, and an accepted state must round-trip through State().
func FuzzRestoreGraph(f *testing.F) {
	p := testprog.Phased(2, 2, 30, omp.Passive)
	pb, err := pinball.Record(p, 5, 0)
	if err != nil {
		f.Fatal(err)
	}
	db := NewBuilder(p, p.NumThreads())
	if _, err := pb.Replay(p, db); err != nil {
		f.Fatal(err)
	}
	genuine := db.Graph().State()
	seeds := append([]GraphState{*genuine}, hostileStates(len(p.Blocks()))...)
	// A genuine prefix: some nodes' edge lists point past the edges kept.
	seeds = append(seeds, GraphState{Nodes: genuine.Nodes[:3], Edges: genuine.Edges[:2]})
	for _, st := range seeds {
		data, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"Nodes":null,"Edges":null}`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var st GraphState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		g, err := RestoreGraph(p, &st)
		if err != nil {
			return
		}
		loops := g.FindLoops()
		g.StableMarkers(loops, 64)
		again, err := RestoreGraph(p, g.State())
		if err != nil {
			t.Fatalf("State() of an accepted graph is rejected: %v", err)
		}
		if !reflect.DeepEqual(again, g) {
			t.Fatal("an accepted graph does not survive State() -> RestoreGraph")
		}
	})
}
