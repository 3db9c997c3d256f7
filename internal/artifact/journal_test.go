package artifact

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestChecksumLineRoundTrip: every record survives the envelope and
// comes back byte-identical; the envelope carries the documented field
// order (fnv1a first) so journals written before the refactor verify
// with the same code.
func TestChecksumLineRoundTrip(t *testing.T) {
	records := [][]byte{
		[]byte(`{}`),
		[]byte(`{"key":"a","config":"0x1","report":{"n":1}}`),
		[]byte(`[1,2,3]`),
		[]byte(`"just a string"`),
	}
	for _, rec := range records {
		line, err := ChecksumLine(rec)
		if err != nil {
			t.Fatalf("ChecksumLine(%s): %v", rec, err)
		}
		if !bytes.HasPrefix(line, []byte(`{"fnv1a":"0x`)) {
			t.Fatalf("envelope does not lead with the checksum: %s", line)
		}
		got, ok := VerifyLine(line)
		if !ok {
			t.Fatalf("VerifyLine rejected its own envelope: %s", line)
		}
		if !bytes.Equal(got, rec) {
			t.Fatalf("record round-trip: got %s, want %s", got, rec)
		}
	}
}

// TestChecksumLineMatchesLegacyFormat: the envelope bytes are exactly
// what the harness resume journal has always written — checksum of the
// compact record, %#x-rendered, field order fnv1a then record — so
// pre-refactor journals stay readable and new lines stay byte-identical.
func TestChecksumLineMatchesLegacyFormat(t *testing.T) {
	rec := []byte(`{"key":"k","v":2}`)
	line, err := ChecksumLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(struct {
		FNV1a  string          `json:"fnv1a"`
		Record json.RawMessage `json:"record"`
	}{fmt.Sprintf("%#x", Checksum(rec)), rec})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, legacy) {
		t.Fatalf("envelope bytes diverged from the legacy journal format:\n got %s\nwant %s", line, legacy)
	}
}

// TestVerifyLineRejectsTampering: any single bit flip in the line —
// envelope or record — fails verification.
func TestVerifyLineRejectsTampering(t *testing.T) {
	line, err := ChecksumLine([]byte(`{"key":"victim","n":12345}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := VerifyLine(line); !ok {
		t.Fatal("intact line rejected")
	}
	rejected := 0
	for i := range line {
		mut := append([]byte(nil), line...)
		mut[i] ^= 1
		if _, ok := VerifyLine(mut); !ok {
			rejected++
		}
	}
	// Some flips inside the record can cancel out through json.Compact
	// only if they map to equivalent JSON — which a single bit flip in
	// this record cannot. Every mutation must be rejected.
	if rejected != len(line) {
		t.Fatalf("only %d/%d single-bit corruptions rejected", rejected, len(line))
	}
}

// TestVerifyLineRejectsGarbage: non-JSON, truncations, and empty input.
func TestVerifyLineRejectsGarbage(t *testing.T) {
	line, _ := ChecksumLine([]byte(`{"a":1}`))
	for _, bad := range [][]byte{nil, []byte("x"), []byte(`{"fnv1a":"0x0"}`), line[:len(line)/2]} {
		if _, ok := VerifyLine(bad); ok {
			t.Fatalf("VerifyLine accepted %q", bad)
		}
	}
}

// TestRepairTornTail: a torn final line is truncated away, complete
// lines survive byte-identically, and clean/missing files are no-ops.
func TestRepairTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")

	if err := RepairTornTail(path); err != nil {
		t.Fatalf("missing file: %v", err)
	}

	l1, _ := ChecksumLine([]byte(`{"k":"one"}`))
	l2, _ := ChecksumLine([]byte(`{"k":"two"}`))
	clean := append(append(append([]byte{}, l1...), '\n'), append(l2, '\n')...)
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RepairTornTail(path); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, clean) {
		t.Fatal("repair modified a clean journal")
	}

	torn := append(append([]byte{}, clean...), []byte(`{"fnv1a":"0xdead","rec`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RepairTornTail(path); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if !bytes.Equal(got, clean) {
		t.Fatalf("torn tail not repaired: %q", got)
	}

	// A file that is nothing but a torn line repairs to empty.
	if err := os.WriteFile(path, []byte(`{"fnv1a":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RepairTornTail(path); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if len(got) != 0 {
		t.Fatalf("lone torn line should repair to empty, got %q", got)
	}
}

// TestChecksummedFileRoundTripAndCorruption: the standalone-envelope
// file format (the campaign result cache) round-trips, classifies
// corruption as ErrCorrupt, and surfaces missing files as such.
func TestChecksummedFileRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deadbeef.json")
	rec := []byte(`{"key":"deadbeef","result":{"regions":7}}`)
	if err := WriteChecksummedFile(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChecksummedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec) {
		t.Fatalf("round-trip: got %s", got)
	}

	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadChecksummedFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt cache file: err=%v, want ErrCorrupt", err)
	}

	if _, err := ReadChecksummedFile(filepath.Join(dir, "missing.json")); !os.IsNotExist(err) {
		t.Fatalf("missing file: err=%v, want IsNotExist", err)
	}
}

// TestWriteChecksummedFileConcurrentWriters: several writers publishing
// one path at once (campaigns sharing a cache directory store the same
// content-addressed key) must not see each other's staging files. Every
// write succeeds, a concurrent reader only ever observes a missing file
// or one writer's complete record, and no temp file survives. With a
// fixed staging name the writers truncate each other's temp file, one
// rename publishes a file another is still filling, and the loser's
// rename fails with ENOENT.
func TestWriteChecksummedFileConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deadbeef.json")
	const writers, rounds = 8, 40
	records := make(map[string]bool)
	recs := make([][]byte, writers)
	for w := range recs {
		// Different lengths, large enough that a write is not one page.
		recs[w] = []byte(fmt.Sprintf(`{"writer":%d,"pad":"%s"}`, w, strings.Repeat("x", 20000+3000*w)))
		records[string(recs[w])] = true
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := WriteChecksummedFile(path, recs[w]); err != nil {
					t.Errorf("writer %d round %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	reads := 0
	for reading := true; reading; reads++ {
		select {
		case <-done:
			reading = false // one more read after the last write
		default:
		}
		rec, err := ReadChecksummedFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatalf("read %d observed a torn file: %v", reads, err)
		}
		if !records[string(rec)] {
			t.Fatalf("read %d verified but is no writer's record (%d bytes)", reads, len(rec))
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "deadbeef.json" {
		t.Fatalf("stray files survive the writers: %v", entries)
	}
}

// TestJournalAppendsDurableLines: OpenJournal repairs a torn tail before
// the first append, concurrent appends land as whole verified lines, and
// a closed journal refuses further appends.
func TestJournalAppendsDurableLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	first, _ := ChecksumLine([]byte(`{"k":"first"}`))
	torn := append(append(append([]byte{}, first...), '\n'), []byte(`{"fnv1a":"0xdead","rec`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	const appenders = 8
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			if err := j.Append([]byte(fmt.Sprintf(`{"k":%d}`, a))); err != nil {
				t.Errorf("append %d: %v", a, err)
			}
		}(a)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{}`)); !errors.Is(err, ErrJournalDead) {
		t.Fatalf("append after Close: err=%v, want ErrJournalDead", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 1+appenders {
		t.Fatalf("%d lines, want %d (torn tail repaired, one line per append)", len(lines), 1+appenders)
	}
	seen := make(map[string]bool)
	for i, line := range lines {
		rec, ok := VerifyLine(line)
		if !ok {
			t.Fatalf("line %d does not verify: %q", i, line)
		}
		seen[string(rec)] = true
	}
	if len(seen) != 1+appenders || !seen[`{"k":"first"}`] {
		t.Fatalf("records lost or duplicated: %v", seen)
	}
}

// TestJournalAppendWithoutRepairLosesBoth documents the failure mode
// OpenJournal's tail repair exists for: appending straight onto a torn
// final line merges the torn bytes and the new record into one line that
// verifies as neither. Through OpenJournal the same append survives.
func TestJournalAppendWithoutRepairLosesBoth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	a, _ := ChecksumLine([]byte(`{"k":"a"}`))
	b, _ := ChecksumLine([]byte(`{"k":"b"}`))
	c, _ := ChecksumLine([]byte(`{"k":"c"}`))
	torn := append(append(append([]byte{}, a...), '\n'), b[:len(b)-3]...)
	count := func() (good, bad int) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ScanRecords(data, func(_ []byte, ok bool) bool {
			if ok {
				good++
			} else {
				bad++
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return good, bad
	}

	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(c, '\n')); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if good, bad := count(); good != 1 || bad != 1 {
		t.Fatalf("raw append: %d good %d bad lines, want the torn+new merged line lost (1/1)", good, bad)
	}

	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"k":"c"}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if good, bad := count(); good != 2 || bad != 0 {
		t.Fatalf("repaired append: %d good %d bad lines, want 2/0", good, bad)
	}
}

// TestScanRecords: the walk skips blank lines, hands over each verified
// record, reports a failing line as (nil, false) without stopping, and
// stops when the callback says so.
func TestScanRecords(t *testing.T) {
	a, _ := ChecksumLine([]byte(`{"k":"a"}`))
	b, _ := ChecksumLine([]byte(`{"k":"b"}`))
	data := bytes.Join([][]byte{a, nil, []byte("  not an envelope "), b, nil}, []byte("\n"))

	var got []string
	err := ScanRecords(data, func(rec []byte, ok bool) bool {
		if !ok && rec != nil {
			t.Errorf("failing line carried a record: %q", rec)
		}
		got = append(got, fmt.Sprintf("%s/%v", rec, ok))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{`{"k":"a"}/true`, `/false`, `{"k":"b"}/true`}; !reflect.DeepEqual(got, want) {
		t.Fatalf("walk saw %q, want %q", got, want)
	}

	calls := 0
	if err := ScanRecords(data, func([]byte, bool) bool { calls++; return false }); err != nil || calls != 1 {
		t.Fatalf("stopped walk: %d calls, err %v; want 1, nil", calls, err)
	}
}
