package timing

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

// recordedProfile records p, builds its DCFG and slices the recording
// into regions of about slice instructions at the stable loop markers —
// the analysis a test needs before it can extract region pinballs.
func recordedProfile(tb testing.TB, p *isa.Program, slice uint64) (*pinball.Pinball, *bbv.Profile) {
	tb.Helper()
	whole, err := pinball.Record(p, 5, 512)
	if err != nil {
		tb.Fatal(err)
	}
	db := dcfg.NewBuilder(p, p.NumThreads())
	if _, err := whole.Replay(p, db); err != nil {
		tb.Fatal(err)
	}
	g := db.Graph()
	var addrs []uint64
	for _, h := range g.StableMarkers(g.FindLoops(), 300) {
		addrs = append(addrs, h.Addr)
	}
	col := bbv.NewCollector(p, addrs, slice)
	if _, err := whole.Replay(p, col); err != nil {
		tb.Fatal(err)
	}
	prof := col.Finish()
	if len(prof.Regions) < 4 {
		tb.Fatalf("only %d regions", len(prof.Regions))
	}
	return whole, prof
}

// fixture is one program with the inputs every simulation mode needs:
// its whole-program pinball, three region pinballs extracted from it, and
// a trace of the whole recording.
type fixture struct {
	prog  *isa.Program
	whole *pinball.Pinball
	rps   []*pinball.Pinball
	trace []byte
}

func newFixture(t testing.TB, p *isa.Program) fixture {
	t.Helper()
	whole, prof := recordedProfile(t, p, 4*1500)
	var specs []pinball.RegionSpec
	for i := 1; i < 4; i++ {
		reg := prof.Regions[i]
		warm := prof.Regions[i-1]
		specs = append(specs, pinball.RegionSpec{
			Name:            "r" + string(rune('0'+i)),
			WarmupStartStep: warm.StartICount,
			StartStep:       reg.StartICount,
			EndStep:         reg.EndICount,
			Start:           reg.Start,
			End:             reg.End,
		})
	}
	rps, err := whole.ExtractRegions(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := whole.StepReplay(p, func(ev *exec.Event) { tw.OnInstr(ev.Tid, ev.Retired) }); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return fixture{prog: p, whole: whole, rps: rps, trace: buf.Bytes()}
}

func phasedProg() *isa.Program { return testprog.Phased(4, 10, 150, omp.Passive) }

// fixtures are two programs whose memories differ severalfold, so a pooled
// system moves between directory sizes in both directions.
func fixtures(t testing.TB) []fixture {
	small, large := phasedProg(), testprog.Phased(4, 4, 1500, omp.Passive)
	if large.MemWords < 4*small.MemWords {
		t.Fatalf("memories of %d and %d words", small.MemWords, large.MemWords)
	}
	return []fixture{newFixture(t, small), newFixture(t, large)}
}

// configs are the two core models a pool keys apart.
var configs = []Config{Gainestown(4), InOrderConfig(4)}

// freshSim is New with every system built by newSystem: the reference a
// pooled run must match.
func freshSim(t testing.TB, cfg Config, p *isa.Program) *Simulator {
	t.Helper()
	s, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	s.fresh = true
	return s
}

// mode is one run of one simulation mode of fx.
type mode struct {
	name string
	do   func(s *Simulator, fx fixture) (*Stats, error)
}

// modes lists every way a simulation takes a system.
var modes = []mode{
	{"full", func(s *Simulator, _ fixture) (*Stats, error) { return s.SimulateFull() }},
	{"full-tap", func(s *Simulator, fx fixture) (*Stats, error) {
		var tap *Stats
		if _, err := s.SimulateFullTap(fx.rps[1].Region.End, func(st *Stats) { tap = st }); err != nil {
			return nil, err
		}
		if tap == nil {
			return nil, fmt.Errorf("tap at %v never fired", fx.rps[1].Region.End)
		}
		return tap, nil
	}},
	{"region", func(s *Simulator, fx fixture) (*Stats, error) {
		return s.SimulateRegion(fx.rps[1].Region.Start, fx.rps[1].Region.End, WarmupFunctional)
	}},
	{"checkpoint", func(s *Simulator, fx fixture) (*Stats, error) { return s.SimulateCheckpoint(fx.rps[0]) }},
	{"constrained", func(s *Simulator, fx fixture) (*Stats, error) { return s.SimulateConstrained(fx.whole) }},
	{"periodic", func(s *Simulator, _ fixture) (*Stats, error) { return s.SimulatePeriodic(500, 2000) }},
	{"trace", func(s *Simulator, fx fixture) (*Stats, error) { return s.simulateTrace(bytes.NewReader(fx.trace)) }},
	// Repeat the first mode: state left by the others must not leak in.
	{"full-again", func(s *Simulator, _ fixture) (*Stats, error) { return s.SimulateFull() }},
}

// TestResetIdentityAcrossModes: every simulation mode, run on pooled
// systems that alternate between core models and between programs of
// different memory sizes, reports byte-identical Stats to a system built
// fresh for the run. Each pooled run is made twice, so the second also
// starts from the residue of the same mode on the same program.
func TestResetIdentityAcrossModes(t *testing.T) {
	fxs := fixtures(t)
	for _, md := range modes {
		for fi, fx := range fxs {
			for _, cfg := range configs {
				name := fmt.Sprintf("%s/prog-%d/%v", md.name, fi, cfg.Kind)
				want, err := md.do(freshSim(t, cfg, fx.prog), fx)
				if err != nil {
					t.Fatalf("%s fresh: %v", name, err)
				}
				pooled, err := New(cfg, fx.prog)
				if err != nil {
					t.Fatal(err)
				}
				for run := 0; run < 2; run++ {
					got, err := md.do(pooled, fx)
					if err != nil {
						t.Fatalf("%s pooled run %d: %v", name, run, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s pooled run %d: stats differ from a fresh system's\npooled: %+v\nfresh:  %+v", name, run, got, want)
					}
				}
			}
		}
	}
}

// TestResetIdentityCheckpoints: one Simulator per core model and program,
// run across every region pinball in turn (the sweep's path), reports
// byte-identical Stats to a fresh system per region.
func TestResetIdentityCheckpoints(t *testing.T) {
	for fi, fx := range fixtures(t) {
		for _, cfg := range configs {
			pooled, err := New(cfg, fx.prog)
			if err != nil {
				t.Fatal(err)
			}
			for i, rp := range fx.rps {
				got, err := pooled.SimulateCheckpoint(rp)
				if err != nil {
					t.Fatalf("prog %d %v region %d pooled: %v", fi, cfg.Kind, i, err)
				}
				want, err := freshSim(t, cfg, fx.prog).SimulateCheckpoint(rp)
				if err != nil {
					t.Fatalf("prog %d %v region %d fresh: %v", fi, cfg.Kind, i, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("prog %d %v region %d: pooled-system stats differ from fresh\npooled: %+v\nfresh:  %+v", fi, cfg.Kind, i, got, want)
				}
			}
		}
	}
}

// TestSimulateConcurrentCheckpoints: two goroutines simulating checkpoints
// on one Simulator at once (each run takes its own system from the pool)
// get exactly the serial results. Run it under -race.
func TestSimulateConcurrentCheckpoints(t *testing.T) {
	fx := newFixture(t, phasedProg())
	sim, err := New(Gainestown(4), fx.prog)
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]*Stats, len(fx.rps))
	for i, rp := range fx.rps {
		if serial[i], err = sim.SimulateCheckpoint(rp); err != nil {
			t.Fatal(err)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([][]*Stats, 2)
	errs := make([]error, 2)
	for g := range got {
		got[g] = make([]*Stats, len(fx.rps))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := range fx.rps {
				i := k
				if g == 1 {
					i = len(fx.rps) - 1 - k // the other order, so runs overlap on different regions too
				}
				if got[g][i], errs[g] = sim.SimulateCheckpoint(fx.rps[i]); errs[g] != nil {
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range serial {
			if !reflect.DeepEqual(got[g][i], serial[i]) {
				t.Fatalf("goroutine %d region %d: concurrent stats differ from serial\nconcurrent: %+v\nserial:     %+v", g, i, got[g][i], serial[i])
			}
		}
	}
}

// TestPooledSystemHoldsNoMachine: a system handed back to the pool keeps
// no functional machine (and with it no program memory) alive.
func TestPooledSystemHoldsNoMachine(t *testing.T) {
	p := phasedProg()
	cfg := Gainestown(4)
	s := freshSim(t, cfg, p)
	sys := s.acquire(exec.NewMachine(p, 1))
	release(sys)
	if sys.m != nil {
		t.Fatal("release left the system bound to its machine")
	}
	if _, err := s.SimulateFull(); err != nil {
		t.Fatal(err)
	}
	for {
		sys, _ := idle(cfg).Get().(*system)
		if sys == nil {
			break
		}
		if sys.m != nil {
			t.Fatal("an idle system in the pool holds a machine")
		}
	}
}

// TestSystemResetAllocs: once a system exists, re-arming it for the next
// simulation allocates nothing — the zero-per-region-growth guarantee the
// sampling pipeline relies on.
func TestSystemResetAllocs(t *testing.T) {
	p := phasedProg()
	m := exec.NewMachine(p, 1)
	sys := newSystem(Gainestown(4), m)
	if allocs := testing.AllocsPerRun(20, func() { sys.reset(m) }); allocs != 0 {
		t.Fatalf("system reset: %.1f allocs/op, want 0", allocs)
	}
}
