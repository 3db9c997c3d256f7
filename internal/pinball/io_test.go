package pinball

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

func TestPinballSerializationRoundTrip(t *testing.T) {
	p := testprog.WithSyscalls(4, 100, omp.Passive)
	pb, err := Record(p, 77, 256)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pb.Write(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if got.Name != pb.Name || got.NumThreads != pb.NumThreads ||
		got.MemChecksum != pb.MemChecksum || got.FinalChecksum != pb.FinalChecksum {
		t.Fatalf("header mismatch: %+v vs %+v", got.Name, pb.Name)
	}
	if len(got.Schedule) != len(pb.Schedule) || got.Schedule.Steps() != pb.Schedule.Steps() {
		t.Fatalf("schedule mismatch")
	}
	for tid := range pb.Syscalls {
		if len(got.Syscalls[tid]) != len(pb.Syscalls[tid]) {
			t.Fatalf("syscall log %d length mismatch", tid)
		}
	}
	// The loaded pinball must replay identically.
	m1, err := pb.Replay(p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := got.Replay(p)
	if err != nil {
		t.Fatalf("loaded pinball replay: %v", err)
	}
	for tid := 0; tid < 4; tid++ {
		a := m1.Mem[testprog.OutAddr(p, tid)]
		b := m2.Mem[testprog.OutAddr(p, tid)]
		if a != b {
			t.Errorf("thread %d output differs after round trip", tid)
		}
	}
}

func TestPinballSaveLoadFile(t *testing.T) {
	p := testprog.Phased(2, 3, 50, omp.Active)
	pb, err := Record(p, 5, 128)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "whole.pinball")
	if err := pb.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := got.Replay(p); err != nil {
		t.Fatalf("replay of loaded pinball: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(strings.NewReader("not a pinball at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadFrom(strings.NewReader("LOOPPINB")); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestLoadRejectsCorruptedPayload(t *testing.T) {
	p := testprog.Phased(2, 2, 30, omp.Passive)
	pb, err := Record(p, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a bit deep inside the memory image: the checksum must catch it.
	data[len(data)/2] ^= 0x40
	if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted pinball accepted")
	}
}

func TestRegionPinballSerialization(t *testing.T) {
	p := testprog.Phased(4, 6, 100, omp.Passive)
	pb, err := Record(p, 5, 256)
	if err != nil {
		t.Fatal(err)
	}
	steps := pb.Schedule.Steps()
	specs := []RegionSpec{{
		Name:            "mid",
		WarmupStartStep: steps / 4,
		StartStep:       steps / 2,
		EndStep:         3 * steps / 4,
	}}
	regions, err := pb.ExtractRegions(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := regions[0].Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmupSteps != regions[0].WarmupSteps {
		t.Errorf("warmup steps differ: %d vs %d", got.WarmupSteps, regions[0].WarmupSteps)
	}
	if got.Schedule.Steps() != regions[0].Schedule.Steps() {
		t.Error("region schedule differs after round trip")
	}
}
