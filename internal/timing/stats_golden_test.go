package timing

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stats_golden.json instead of comparing")

const statsGoldenFile = "testdata/stats_golden.json"

// TestStatsGolden pins the full Stats of marker-delimited simulations,
// bit for bit (encoding/json writes the shortest float that round-trips),
// over wait policy × warm-up mode × marker kind: every PC-delimited
// region of the profile, a raw icount window in the middle of the run,
// and an icount window whose start marker fires on the first instruction;
// and for checkpoints, a warm-up prefix of one region, one reaching back
// to the program start, and none, again with PC and icount markers (a
// checkpoint's icount markers count from its snapshot). The file was
// generated while runMarked still had a block-batched fast-forward beside
// its per-instruction loop, with the two pinned identical; it is the
// regression net of the one loop that remains.
func TestStatsGolden(t *testing.T) {
	got := map[string]*Stats{}
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		pname := "passive"
		if policy == omp.Active {
			pname = "active"
		}
		p := testprog.Phased(4, 8, 120, policy)
		whole, prof := recordedProfile(t, p, 4*1200)
		sim, err := New(Gainestown(4), p)
		if err != nil {
			t.Fatal(err)
		}

		mid, quarter := prof.TotalICount/2, prof.TotalICount/4
		for _, warm := range []WarmupMode{WarmupFunctional, WarmupNone} {
			region := func(name string, start, end bbv.Marker) {
				st, err := sim.SimulateRegion(start, end, warm)
				if err != nil {
					t.Fatalf("%s: SimulateRegion(%v..%v, %v): %v", pname, start, end, warm, err)
				}
				got[fmt.Sprintf("%s/region/%v/%s", pname, warm, name)] = st
			}
			for i, reg := range prof.Regions {
				region(fmt.Sprintf("pc-%02d", i), reg.Start, reg.End)
			}
			region("icount", bbv.Marker{Count: mid}, bbv.Marker{Count: mid + quarter})
			region("first-instr", bbv.Marker{Count: 1}, bbv.Marker{Count: quarter})
		}

		last := len(prof.Regions) - 2
		reg, back := prof.Regions[last], prof.Regions[last-1]
		spec := func(name string, warmupStart uint64, start, end bbv.Marker) pinball.RegionSpec {
			return pinball.RegionSpec{
				Name:            name,
				WarmupStartStep: warmupStart,
				StartStep:       reg.StartICount,
				EndStep:         reg.EndICount,
				Start:           start,
				End:             end,
			}
		}
		warmLen, regLen := reg.StartICount-back.StartICount, reg.EndICount-reg.StartICount
		rps, err := whole.ExtractRegions(p, []pinball.RegionSpec{
			spec("pc-warm-one-region", back.StartICount, reg.Start, reg.End),
			spec("pc-warm-from-start", 0, reg.Start, reg.End),
			spec("pc-cold", reg.StartICount, reg.Start, reg.End),
			spec("icount", back.StartICount, bbv.Marker{Count: warmLen}, bbv.Marker{Count: warmLen + regLen}),
			spec("first-instr", reg.StartICount, bbv.Marker{Count: 1}, bbv.Marker{Count: regLen}),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, rp := range rps {
			st, err := sim.SimulateCheckpoint(rp)
			if err != nil {
				t.Fatalf("%s: SimulateCheckpoint(%s): %v", pname, rp.Name, err)
			}
			if st.Instructions == 0 {
				t.Errorf("%s: checkpoint %s measured nothing", pname, rp.Name)
			}
			got[fmt.Sprintf("%s/checkpoint/%s", pname, rp.Name)] = st
		}
	}

	enc, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateGolden {
		if err := os.WriteFile(statsGoldenFile, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(statsGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(enc, want) {
		return
	}
	var pinned map[string]*Stats
	if err := json.Unmarshal(want, &pinned); err != nil {
		t.Fatalf("%s: %v", statsGoldenFile, err)
	}
	for name, st := range got {
		g, _ := json.Marshal(st)
		w, _ := json.Marshal(pinned[name])
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from %s\ngot:  %s\nwant: %s", name, statsGoldenFile, g, w)
		}
	}
	if len(pinned) != len(got) {
		t.Errorf("%s pins %d simulations, the test ran %d", statsGoldenFile, len(pinned), len(got))
	}
}
