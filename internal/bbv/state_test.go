package bbv_test

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

type recording struct {
	prog *isa.Program
	pb   *pinball.Pinball
}

func windowRecordings(t *testing.T) map[string]recording {
	t.Helper()
	out := map[string]recording{}
	for _, rec := range []struct {
		name string
		prog *isa.Program
		seed uint64
		flow uint64
	}{
		{"phased", testprog.Phased(4, 3, 40, omp.Passive), 5, 0},
		{"syscalls", testprog.WithSyscalls(4, 60, omp.Passive), 11, 16},
		{"active", testprog.Phased(3, 2, 20, omp.Active), 1, 8},
	} {
		pb, err := pinball.Record(rec.prog, rec.seed, rec.flow)
		if err != nil {
			t.Fatalf("%s: %v", rec.name, err)
		}
		out[rec.name] = recording{rec.prog, pb}
	}
	return out
}

// loopMarkers returns every conditional self-loop header in the
// program's non-sync images — the same marker shape the DCFG pass feeds
// the profiler.
func loopMarkers(t *testing.T, p *isa.Program) []uint64 {
	t.Helper()
	var markers []uint64
	for _, img := range p.Images {
		if img.Sync {
			continue
		}
		for _, rt := range img.Routines {
			for i, blk := range rt.Blocks {
				term := blk.Instrs[len(blk.Instrs)-1]
				if term.Op == isa.OpBrCond && (term.Target == i || term.Else == i) {
					markers = append(markers, blk.Addr)
				}
			}
		}
	}
	if len(markers) == 0 {
		t.Skip("no loop markers in program")
	}
	return markers
}

// collectorConfig is one way the analysis configures its collector.
type collectorConfig struct {
	label       string
	modulus     map[uint64]uint64
	includeSync bool
	variable    bool
}

func (cc collectorConfig) apply(col *bbv.Collector) {
	col.SetMarkerModulus(cc.modulus)
	if cc.includeSync {
		col.DisableSyncFilter()
	}
	if cc.variable {
		col.SetVariableSlices(0.25, 0.5)
	}
}

// windowedProfile feeds one collector the recording as chained replay
// windows of every() steps. With restore set, the collector is thrown
// away at every window boundary and revived from a JSON round trip of its
// State — the exact persistence the durable analysis performs.
func windowedProfile(t *testing.T, w recording, markers []uint64, target uint64, cc collectorConfig, every func() uint64, restore bool) *bbv.Profile {
	t.Helper()
	col := bbv.NewCollector(w.prog, markers, target)
	cc.apply(col)
	ck := w.pb.StartCheckpoint()
	for total := w.pb.Schedule.Steps(); ck.Step < total; {
		var err error
		if ck, err = w.pb.ReplayWindow(w.prog, ck, every(), col); err != nil {
			t.Fatalf("window at step %d: %v", ck.Step, err)
		}
		if !restore {
			continue
		}
		blob, err := json.Marshal(col.State())
		if err != nil {
			t.Fatal(err)
		}
		var st bbv.CollectorState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		if col, err = bbv.RestoreCollector(w.prog, markers, target, &st); err != nil {
			t.Fatalf("restore at step %d: %v", ck.Step, err)
		}
		cc.apply(col)
	}
	return col.Finish()
}

func fixed(every uint64) func() uint64 { return func() uint64 { return every } }

// TestCollectorWindowedIdentity pins the one BBV engine's resumability:
// a Collector fed the recording in windows — carried across them in
// memory, or serialized and restored at every boundary — produces a
// profile deep-equal to one fed by a single unbroken replay: regions,
// markers, end counts, per-thread vectors. Across window widths
// (including one wider than the run and one so narrow most windows hold
// no marker), marker moduli, the sync filter, and variable-length slicing
// (whose previous-region vector is re-derived, not stored).
func TestCollectorWindowedIdentity(t *testing.T) {
	variableMattered := false
	for name, w := range windowRecordings(t) {
		t.Run(name, func(t *testing.T) {
			markers := loopMarkers(t, w.prog)
			target := uint64(60 * w.prog.NumThreads())
			total := w.pb.Schedule.Steps()
			symmetric := map[uint64]uint64{}
			for _, a := range markers {
				symmetric[a] = uint64(w.prog.NumThreads())
			}
			var plain *bbv.Profile
			for _, cc := range []collectorConfig{
				{label: "plain"},
				{label: "modulus", modulus: symmetric},
				{label: "nosyncfilter", includeSync: true},
				{label: "variable", variable: true},
			} {
				t.Run(cc.label, func(t *testing.T) {
					want := windowedProfile(t, w, markers, target, cc, fixed(total), false)
					if cc.label == "plain" {
						plain = want
					} else if cc.variable && len(want.Regions) != len(plain.Regions) {
						variableMattered = true
					}
					for _, every := range []uint64{total / 2, total / 3, total / 7, 64, total + 5} {
						for _, restore := range []bool{false, true} {
							got := windowedProfile(t, w, markers, target, cc, fixed(every), restore)
							if !reflect.DeepEqual(got, want) {
								t.Errorf("every=%d restore=%v: windowed profile differs from unbroken (%d vs %d regions, totals %d/%d vs %d/%d)",
									every, restore, len(got.Regions), len(want.Regions),
									got.TotalFiltered, got.TotalICount, want.TotalFiltered, want.TotalICount)
							}
						}
					}
				})
			}
		})
	}
	if !variableMattered {
		t.Error("variable slicing never closed a region early on any recording; the prevNorm re-derivation is not exercised")
	}
}

// TestCollectorStateAtArbitraryCuts cuts the block-tier replay at seeded
// random step offsets, so a cut lands inside a block, a quantum and a
// region with counts still pending in the collector's dense accumulators:
// State() → JSON → RestoreCollector → continue must give the unbroken
// profile under fixed and variable slicing and without the sync filter,
// for both wait policies. And one collector fed on the two tiers
// alternately, nothing flushed in between, must give the profile of pure
// per-instruction observation.
func TestCollectorStateAtArbitraryCuts(t *testing.T) {
	for name, w := range windowRecordings(t) {
		t.Run(name, func(t *testing.T) {
			markers := loopMarkers(t, w.prog)
			target := uint64(60 * w.prog.NumThreads())
			total := w.pb.Schedule.Steps()
			for _, cc := range []collectorConfig{
				{label: "fixed"},
				{label: "variable", variable: true},
				{label: "nosyncfilter", includeSync: true},
			} {
				want := windowedProfile(t, w, markers, target, cc, fixed(total), false)
				for seed := int64(1); seed <= 4; seed++ {
					rng := rand.New(rand.NewSource(seed))
					random := func() uint64 { return 1 + uint64(rng.Int63n(int64(total/6))) }
					if got := windowedProfile(t, w, markers, target, cc, random, true); !reflect.DeepEqual(got, want) {
						t.Errorf("%s seed %d: profile restored at random cuts differs from unbroken (%d vs %d regions)",
							cc.label, seed, len(got.Regions), len(want.Regions))
					}
				}

				// Tiers alternate window by window on one live collector.
				rng := rand.New(rand.NewSource(9))
				pure, mixed := bbv.NewCollector(w.prog, markers, target), bbv.NewCollector(w.prog, markers, target)
				cc.apply(pure)
				cc.apply(mixed)
				if _, err := w.pb.ReplayWindow(w.prog, w.pb.StartCheckpoint(), total, exec.ObserverFunc(pure.OnInstr)); err != nil {
					t.Fatal(err)
				}
				ck := w.pb.StartCheckpoint()
				for perInstr := false; ck.Step < total; perInstr = !perInstr {
					var obs exec.Observer = mixed // a BlockObserver too: rides the block tier
					if perInstr {
						obs = exec.ObserverFunc(mixed.OnInstr)
					}
					var err error
					if ck, err = w.pb.ReplayWindow(w.prog, ck, 1+uint64(rng.Int63n(int64(total/9))), obs); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := mixed.Finish(), pure.Finish(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: collector fed OnBlock and OnInstr alternately differs from pure OnInstr (%d vs %d regions)",
						cc.label, len(got.Regions), len(want.Regions))
				}
			}
		})
	}
}

// TestRestoreCollectorRejectsCorruptState feeds hostile states and
// requires ErrCorrupt errors, never panics — and never a collector whose
// counters would silently misplace every later region boundary.
func TestRestoreCollectorRejectsCorruptState(t *testing.T) {
	w := windowRecordings(t)["phased"]
	markers := loopMarkers(t, w.prog)
	target := uint64(60 * w.prog.NumThreads())
	nt := w.prog.NumThreads()

	// A genuine mid-run state with closed regions to corrupt.
	col := bbv.NewCollector(w.prog, markers, target)
	if _, err := w.pb.ReplayWindow(w.prog, w.pb.StartCheckpoint(), w.pb.Schedule.Steps()/2, col); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(col.State())
	if err != nil {
		t.Fatal(err)
	}
	genuine := func() *bbv.CollectorState {
		st := &bbv.CollectorState{}
		if err := json.Unmarshal(blob, st); err != nil {
			t.Fatal(err)
		}
		if len(st.Regions) < 2 {
			t.Fatal("need closed regions in the state under test")
		}
		return st
	}
	if _, err := bbv.RestoreCollector(w.prog, markers, target, genuine()); err != nil {
		t.Fatalf("genuine state rejected: %v", err)
	}

	for label, mutate := range map[string]func(st *bbv.CollectorState){
		"no open region":           func(st *bbv.CollectorState) { st.Cur = nil },
		"nil closed region":        func(st *bbv.CollectorState) { st.Regions[1] = nil },
		"misnumbered region":       func(st *bbv.CollectorState) { st.Regions[1].Index = 7 },
		"wrong thread arity":       func(st *bbv.CollectorState) { st.Cur.ThreadFiltered = make([]uint64, nt+1) },
		"wrong vector arity":       func(st *bbv.CollectorState) { st.Regions[0].Vectors = st.Regions[0].Vectors[:nt-1] },
		"empty open region shape":  func(st *bbv.CollectorState) { st.Cur = &bbv.Region{Index: len(st.Regions)} },
		"nil vector":               func(st *bbv.CollectorState) { st.Cur.Vectors[0] = nil },
		"regions sum != filtered":  func(st *bbv.CollectorState) { st.Regions[0].Filtered++ },
		"open region != remainder": func(st *bbv.CollectorState) { st.Filtered++ },
		"slice start > filtered":   func(st *bbv.CollectorState) { st.SliceStart = st.Filtered + 1 },
		"icount behind filtered":   func(st *bbv.CollectorState) { st.ICount = st.Filtered - 1 },
	} {
		st := genuine()
		mutate(st)
		if _, err := bbv.RestoreCollector(w.prog, markers, target, st); !errors.Is(err, artifact.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", label, err)
		}
	}
	if _, err := bbv.RestoreCollector(w.prog, markers, target, nil); !errors.Is(err, artifact.ErrCorrupt) {
		t.Errorf("nil state: got %v, want ErrCorrupt", err)
	}
}
