package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/core"
	"looppoint/internal/stats"
)

// stubReport builds a minimal rehydratable report for journal tests.
func stubReport(name string, regions, points int) *core.Report {
	return &core.Report{
		Name: name,
		Selection: &core.Selection{
			Analysis: &core.Analysis{
				Profile: &bbv.Profile{Regions: make([]*bbv.Region, regions)},
			},
			Points: make([]core.LoopPoint, points),
		},
		Predicted: core.Prediction{Cycles: float64(1000 * (regions + 1))},
	}
}

// writeTestJournal appends the given keys as records and returns the
// journal file's bytes.
func writeTestJournal(t *testing.T, path, config string, keys ...string) []byte {
	t.Helper()
	j, err := openJournal(path, config)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		if err := j.append(key, stubReport(key, i+1, i+1)); err != nil {
			t.Fatalf("append %s: %v", key, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJournalTornFinalRecordTruncation simulates a SIGKILL mid-append —
// every possible torn prefix of the final record — and requires that
// (a) loading alone drops only the torn record, and (b) reopening for
// append repairs the tail so a subsequent append is not corrupt-
// concatenated onto the torn bytes (which would lose both records).
func TestJournalTornFinalRecordTruncation(t *testing.T) {
	dir := t.TempDir()
	config := "#cfg"
	full := writeTestJournal(t, filepath.Join(dir, "ref.jsonl"), config, "a", "b", "c")

	lines := bytes.SplitAfter(full, []byte("\n"))
	if len(lines) < 3 || len(lines[2]) == 0 {
		t.Fatalf("journal does not have 3 lines: %q", full)
	}
	prefix := len(full) - len(lines[2]) // bytes of the two intact records

	// Sample torn lengths across the final record, including 1 byte and
	// all-but-the-newline.
	finalLen := len(lines[2])
	cuts := []int{1, finalLen / 4, finalLen / 2, finalLen - 2, finalLen - 1}
	for _, cut := range cuts {
		if cut < 1 || cut >= finalLen {
			continue
		}
		path := filepath.Join(dir, "torn.jsonl")
		if err := os.WriteFile(path, full[:prefix+cut], 0o644); err != nil {
			t.Fatal(err)
		}

		// (a) A plain load must survive the torn tail: both intact
		// records restore, the torn one is dropped. The sole exception
		// is a tear that lost only the trailing newline — the record
		// bytes are complete, so the scanner still restores it.
		wantRestored, wantDropped := 2, 1
		if cut == finalLen-1 {
			wantRestored, wantDropped = 3, 0
		}
		restored, dropped, _, err := loadJournal(path, config)
		if err != nil {
			t.Fatalf("cut %d: loadJournal: %v", cut, err)
		}
		if len(restored) != wantRestored || dropped != wantDropped {
			t.Fatalf("cut %d: restored %d dropped %d, want %d/%d", cut, len(restored), dropped, wantRestored, wantDropped)
		}

		// (b) Reopening for append repairs the tail; the next record
		// must land on its own line and survive a reload losslessly.
		j, err := openJournal(path, config)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := j.append("d", stubReport("d", 4, 4)); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		restored, dropped, _, err = loadJournal(path, config)
		if err != nil {
			t.Fatalf("cut %d: reload: %v", cut, err)
		}
		if len(restored) != 3 || dropped != 0 {
			t.Fatalf("cut %d: after repair restored %d dropped %d, want 3/0 (torn tail leaked into the new record)", cut, len(restored), dropped)
		}
		if restored["d"] == nil || restored["d"].Name != "d" {
			t.Fatalf("cut %d: appended record missing after repair", cut)
		}
		if _, err := os.Stat(path + ".repair"); !os.IsNotExist(err) {
			t.Fatalf("cut %d: repair temp file left behind", cut)
		}
	}
}

// TestJournalAppendWithoutRepairLosesBoth documents the failure mode the
// tail repair exists for: appending straight onto a torn final line (as
// the pre-repair code did) merges torn bytes and the new record into one
// corrupt line. The repair path must never regress to this.
func TestJournalAppendWithoutRepairLosesBoth(t *testing.T) {
	dir := t.TempDir()
	config := "#cfg"
	full := writeTestJournal(t, filepath.Join(dir, "ref.jsonl"), config, "a", "b")

	// Tear the final record and append WITHOUT repair (raw O_APPEND).
	path := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(journalRecord{Key: "c", Config: config, Report: newReportData(stubReport("c", 3, 3))})
	if err != nil {
		t.Fatal(err)
	}
	line, err := artifact.ChecksumLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	restored, dropped, _, err := loadJournal(path, config)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || dropped != 1 {
		t.Fatalf("raw append: restored %d dropped %d — expected the torn+new merged line to be lost (1 restored, 1 dropped)", len(restored), dropped)
	}
}

// intervalsReport builds a rehydratable report carrying a confidence-
// interval block with bit-patterns that exercise float round-tripping
// (repeating binary fractions, subnormal-adjacent magnitudes).
func intervalsReport(name string) *core.Report {
	rep := stubReport(name, 5, 3)
	rep.Intervals = &core.Intervals{
		Level:        0.95,
		Cycles:       stats.Interval{Mean: 1.0 / 3.0, HalfWidth: 2.0 / 7.0},
		Seconds:      stats.Interval{Mean: 1.2345678901234567e-9, HalfWidth: 9.87654321e-12},
		Instructions: stats.Interval{Mean: 1e15 + 1, HalfWidth: 0.1},
		BranchMisses: stats.Interval{Mean: 42, HalfWidth: 0},
		Branches:     stats.Interval{Mean: 0.30000000000000004, HalfWidth: 1e-300},
		L1DMisses:    stats.Interval{Mean: 7, HalfWidth: 0.5},
		L2Misses:     stats.Interval{Mean: 3, HalfWidth: 0.25},
		L3Misses:     stats.Interval{Mean: 1, HalfWidth: 0.125},
	}
	return rep
}

// TestJournalIntervalsRoundTrip pins the confidence-interval block to a
// byte-identical journal round-trip: a journaled report's Intervals must
// rehydrate to exactly the same JSON bytes (hence the same float bits),
// and a nil Intervals must stay nil rather than rehydrating as a zero
// struct.
func TestJournalIntervalsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	config := "#cfg"
	j, err := openJournal(path, config)
	if err != nil {
		t.Fatal(err)
	}
	withIV := intervalsReport("with-iv")
	if err := j.append("with-iv", withIV); err != nil {
		t.Fatal(err)
	}
	if err := j.append("point-only", stubReport("point-only", 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	restored, dropped, _, err := loadJournal(path, config)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || len(restored) != 2 {
		t.Fatalf("restored %d dropped %d, want 2/0", len(restored), dropped)
	}
	got := restored["with-iv"]
	if got == nil || got.Intervals == nil {
		t.Fatal("intervals lost in journal round-trip")
	}
	want, err := json.Marshal(withIV.Intervals)
	if err != nil {
		t.Fatal(err)
	}
	have, err := json.Marshal(got.Intervals)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, have) {
		t.Fatalf("intervals not byte-identical after round-trip:\n want %s\n have %s", want, have)
	}
	if !reflect.DeepEqual(withIV.Intervals, got.Intervals) {
		t.Fatalf("intervals differ structurally: want %+v have %+v", withIV.Intervals, got.Intervals)
	}
	if po := restored["point-only"]; po == nil || po.Intervals != nil {
		t.Fatalf("nil Intervals must rehydrate as nil, got %+v", po.Intervals)
	}
}

// TestJournalIntervalsTornRecord tears a record carrying the new
// interval fields at several byte offsets: the torn line must be dropped
// whole (never a half-parsed interval) while intact interval records
// load losslessly.
func TestJournalIntervalsTornRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	config := "#cfg"
	j, err := openJournal(path, config)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append("intact", intervalsReport("intact")); err != nil {
		t.Fatal(err)
	}
	if err := j.append("torn", intervalsReport("torn")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("expected 2 journal lines, got %q", full)
	}
	prefix := len(lines[0])
	finalLen := len(lines[1])
	for _, cut := range []int{1, finalLen / 3, finalLen / 2, finalLen - 2} {
		if cut < 1 || cut >= finalLen-1 {
			continue
		}
		torn := filepath.Join(dir, "torn.jsonl")
		if err := os.WriteFile(torn, full[:prefix+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		restored, dropped, _, err := loadJournal(torn, config)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(restored) != 1 || dropped != 1 {
			t.Fatalf("cut %d: restored %d dropped %d, want 1/1", cut, len(restored), dropped)
		}
		got := restored["intact"]
		if got == nil || got.Intervals == nil || got.Intervals.Level != 0.95 {
			t.Fatalf("cut %d: intact interval record damaged: %+v", cut, got)
		}
	}
}
