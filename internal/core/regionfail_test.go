package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

// TestSimulateRegionsFailsOnUnreachableMarker: a region whose end marker
// is never reached — a real failure, nothing injected — fails the whole
// sweep with an error naming the region, at width 1 and 2 and with
// durable progress on. The failed region is never stored, so a second
// sweep fails the same way: no sweep returns a smaller sample.
func TestSimulateRegionsFailsOnUnreachableMarker(t *testing.T) {
	for _, width := range []int{1, 2} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("width%d/durable=%t", width, durable), func(t *testing.T) {
				cfg := testConfig()
				if durable {
					cfg = durableConfig(t.TempDir())
				}
				a, err := Analyze(testprog.Phased(4, 10, 150, omp.Passive), cfg)
				if err != nil {
					t.Fatal(err)
				}
				sel, err := Select(a)
				if err != nil {
					t.Fatal(err)
				}
				bad := -1
				for i, lp := range sel.Points {
					if end := lp.Region.End; !end.IsEnd && !end.IsICount() {
						bad = i
					}
				}
				if bad < 1 {
					t.Fatal("no looppoint past the first ends at a PC marker")
				}
				points := append([]LoopPoint(nil), sel.Points...)
				r := *points[bad].Region
				r.End.Count = 1 << 62
				points[bad].Region = &r
				sel.Points = points

				simCfg := timing.Gainestown(4)
				want := fmt.Sprintf("core: region %d: timing: end marker", r.Index)
				for sweep := 1; sweep <= 2; sweep++ {
					res, err := SimulateRegions(context.Background(), sel, simCfg, SimOpts{Width: width})
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("sweep %d: err = %v, want one containing %q", sweep, err, want)
					}
					if res != nil {
						t.Fatalf("sweep %d: a failed sweep returned %d results", sweep, len(res))
					}
					rs := openRegionStore(sel, simCfg)
					if _, ok := rs.lookup(bad); ok {
						t.Fatalf("sweep %d: the failed region was stored", sweep)
					}
					// At width 1 every region before the failed one ran, so
					// the store shows it is live.
					for i := 0; durable && width == 1 && i < bad; i++ {
						if _, ok := rs.lookup(i); !ok {
							t.Fatalf("sweep %d: region %d ran but was not stored", sweep, sel.Points[i].Region.Index)
						}
					}
				}
			})
		}
	}
}
