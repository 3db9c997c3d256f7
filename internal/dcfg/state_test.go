package dcfg

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestGraphStateRoundTrip pins the serialized graph round-trip exact:
// State → JSON → RestoreGraph must deep-equal the original, including
// Node.Out/In insertion order and the unexported edge map.
func TestGraphStateRoundTrip(t *testing.T) {
	for name, w := range testRecordings(t) {
		t.Run(name, func(t *testing.T) {
			g := replayGraph(t, w.prog, w.pb)
			data, err := json.Marshal(g.State())
			if err != nil {
				t.Fatal(err)
			}
			var st GraphState
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			got, err := RestoreGraph(w.prog, &st)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, g) {
				t.Fatal("restored graph differs from original")
			}
		})
	}
}

// hostileStates are graph states RestoreGraph must reject, for a program of
// nblocks blocks.
func hostileStates(nblocks int) []GraphState {
	return []GraphState{
		{Nodes: []NodeState{{Global: -1}}},
		{Nodes: []NodeState{{Global: nblocks}}},
		{Nodes: []NodeState{{Global: 0, Out: []int{0}}}},
		{Edges: []EdgeState{{From: 0, To: nblocks, Kind: 0}}},
		{Edges: []EdgeState{{From: 0, To: 0, Kind: 9}}},
		{Nodes: []NodeState{{Global: 0}, {Global: 0}}},
		{Edges: []EdgeState{{From: 0, To: 0}, {From: 0, To: 0}}},
		// Found by FuzzRestoreGraph: an edge on no adjacency list was
		// accepted and then lost by State(), which enumerates edges through
		// the Out lists. The lists must agree with the edges.
		{Edges: []EdgeState{{From: 0, To: 0}}},
		{Nodes: []NodeState{{Global: 0, Out: []int{0}}, {Global: 1}}, Edges: []EdgeState{{From: 0, To: 1}}},
		{Nodes: []NodeState{{Global: 0, Out: []int{0}, In: []int{0}}, {Global: 1}}, Edges: []EdgeState{{From: 0, To: 1}}},
		{Nodes: []NodeState{{Global: 0, Out: []int{0, 0}, In: []int{0}}}, Edges: []EdgeState{{From: 0, To: 0}}},
	}
}

// TestStateRestoreValidation feeds hostile states and requires errors,
// never panics or silent acceptance.
func TestStateRestoreValidation(t *testing.T) {
	for _, w := range testRecordings(t) {
		for i, st := range hostileStates(len(w.prog.Blocks())) {
			if _, err := RestoreGraph(w.prog, &st); err == nil {
				t.Fatalf("hostile graph state %d accepted", i)
			}
		}
		break
	}
}
