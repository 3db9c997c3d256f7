package timing

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

func TestTraceDrivenMatchesConstrained(t *testing.T) {
	// A trace captured during a pinball replay carries the same
	// interleaving the constrained simulator follows, and the timing-only
	// consumer charges the same costs — so instruction counts and
	// microarchitectural counters must match exactly, and cycles closely
	// (the constrained simulator's shared-order stalls and exact wake
	// bookkeeping are the only differences).
	p := testprog.Phased(4, 4, 150, omp.Active)
	pb, err := pinball.Record(p, 9, 512)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.StepReplay(p, func(ev *exec.Event) { tw.OnInstr(ev.Tid, ev.Retired) }); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if tw.Records() != pb.Schedule.Steps() {
		t.Fatalf("trace has %d records, schedule %d steps", tw.Records(), pb.Schedule.Steps())
	}

	traced, err := SimulateTrace(Gainestown(4), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("SimulateTrace: %v", err)
	}
	sim, err := New(Gainestown(4), p)
	if err != nil {
		t.Fatal(err)
	}
	constrained, err := sim.SimulateConstrained(pb)
	if err != nil {
		t.Fatal(err)
	}

	if traced.Instructions != constrained.Instructions {
		t.Errorf("instructions differ: trace %d vs constrained %d",
			traced.Instructions, constrained.Instructions)
	}
	if traced.BranchMisses != constrained.BranchMisses {
		t.Errorf("branch misses differ: %d vs %d", traced.BranchMisses, constrained.BranchMisses)
	}
	if traced.L1DMisses != constrained.L1DMisses || traced.L2Misses != constrained.L2Misses {
		t.Errorf("cache misses differ: L1D %d/%d L2 %d/%d",
			traced.L1DMisses, constrained.L1DMisses, traced.L2Misses, constrained.L2Misses)
	}
	// The trace run has no machine to size its coherence directory from;
	// grown line by line, it must still see every sharer.
	if traced.CoherenceInvalidations == 0 || traced.CoherenceInvalidations != constrained.CoherenceInvalidations {
		t.Errorf("coherence invalidations differ (or are zero): trace %d vs constrained %d",
			traced.CoherenceInvalidations, constrained.CoherenceInvalidations)
	}
	ratio := traced.Cycles / constrained.Cycles
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("cycles diverge: trace %.0f vs constrained %.0f (%.2fx)",
			traced.Cycles, constrained.Cycles, ratio)
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := SimulateTrace(Gainestown(2), strings.NewReader("not a trace")); err == nil {
		t.Fatal("garbage trace accepted")
	}
	// Truncated mid-record.
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), 0x01, 0x02, 0x03)
	if _, err := SimulateTrace(Gainestown(2), bytes.NewReader(data)); err == nil {
		t.Fatal("truncated trace accepted")
	}
	// An address that would size the coherence directory to terabytes.
	rec := make([]byte, 27)
	rec[1] = uint8(isa.OpILoad)
	rec[2] = tfMem
	binary.LittleEndian.PutUint64(rec[19:], 1<<50)
	data = append(buf.Bytes(), rec...)
	if _, err := SimulateTrace(Gainestown(2), bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "address") {
		t.Fatalf("trace with a 2^50 address: err = %v, want an address error", err)
	}
	binary.LittleEndian.PutUint64(rec[19:], maxTraceAddr)
	data = append(buf.Bytes(), rec...)
	if _, err := SimulateTrace(Gainestown(2), bytes.NewReader(data)); err != nil {
		t.Fatalf("trace at the address limit rejected: %v", err)
	}
}

func TestTraceThreadBoundsChecked(t *testing.T) {
	p := testprog.Phased(4, 2, 50, omp.Passive)
	pb, err := pinball.Record(p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf)
	if _, err := pb.StepReplay(p, func(ev *exec.Event) { tw.OnInstr(ev.Tid, ev.Retired) }); err != nil {
		t.Fatal(err)
	}
	tw.Close()
	// Simulating a 4-thread trace on a 2-core config must fail loudly.
	if _, err := SimulateTrace(Gainestown(2), bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("trace with out-of-range thread accepted")
	}
}
