package artifact

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Checksummed-JSONL primitives, shared by the append-only campaign journal
// and every entry of the content-addressed Store. One line is a
// small envelope — the FNV-1a checksum of the compact record bytes, then
// the record itself — so a reader can reject records torn by a mid-write
// kill without trusting anything beyond this file's own bytes:
//
//	{"fnv1a":"0x9e3779b97f4a7c15","record":{...}}
//
// The companion invariants every writer of this format follows:
// appends are fsynced before being acknowledged, and a torn final line
// (a record cut short by SIGKILL mid-write) is truncated away on open —
// crash-safely, via a temp file fsynced BEFORE the atomic rename — so
// the next append starts on a fresh line instead of corrupt-
// concatenating with the torn bytes.

// checksummedLine is the one-line envelope: checksum first, record second.
type checksummedLine struct {
	FNV1a  string          `json:"fnv1a"`
	Record json.RawMessage `json:"record"`
}

// ChecksumLine wraps one compact JSON record into its checksummed
// envelope line (no trailing newline). The record must already be valid
// JSON — it is embedded verbatim, and VerifyLine checks the checksum
// against the compact form of what it finds.
func ChecksumLine(record []byte) ([]byte, error) {
	return json.Marshal(checksummedLine{
		FNV1a:  fmt.Sprintf("%#x", Checksum(record)),
		Record: record,
	})
}

// VerifyLine parses one envelope line and returns the compact record
// bytes if — and only if — the embedded checksum matches. A false return
// means the line is torn, corrupt, or not an envelope at all; callers
// drop such lines and keep reading (a torn final line from a killed run
// must not poison a restart).
func VerifyLine(line []byte) ([]byte, bool) {
	var ent checksummedLine
	if json.Unmarshal(line, &ent) != nil {
		return nil, false
	}
	var compact bytes.Buffer
	if json.Compact(&compact, ent.Record) != nil {
		return nil, false
	}
	if fmt.Sprintf("%#x", Checksum(compact.Bytes())) != ent.FNV1a {
		return nil, false
	}
	return compact.Bytes(), true
}

// ScanRecords is the read side of every checksummed-JSONL journal: it
// walks the non-blank lines of a journal image and hands fn each line's
// verified compact record, or (nil, false) for a line VerifyLine
// rejects. fn returns false to stop the walk. What a bad line means —
// drop and count it, skip it, stop trusting the rest — is the caller's
// policy, in its callback. The error is the scanner's (a line past
// 16 MiB).
func ScanRecords(data []byte, fn func(rec []byte, ok bool) bool) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !fn(VerifyLine(line)) {
			return nil
		}
	}
	return sc.Err()
}

// RepairTornTail truncates a trailing unterminated line — a record torn
// by a SIGKILL mid-write. The repair itself is crash-safe: the retained
// prefix goes through WriteFileDurable, so a kill at any point during
// the repair leaves either the old journal or the fully repaired one on
// disk, never a half-truncated file (a rename that outruns its data's
// fsync can publish an empty or partial file after a power cut). A
// missing file is not an error.
func RepairTornTail(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) == 0 || data[len(data)-1] == '\n' {
		return nil // every line complete; nothing to repair
	}
	keep := 0
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		keep = i + 1
	}
	return WriteFileDurable(path, data[:keep])
}

// WriteChecksummedFile publishes one record as a standalone checksummed
// envelope file (a Store entry, core's recovery-point graph) through
// WriteFileDurable, so readers only ever observe a missing file or a
// complete one — also when several writers publish the same path at once
// (campaigns sharing a cache directory store the same content-addressed
// key): each stages into its own temp file and the renames are atomic.
func WriteChecksummedFile(path string, record []byte) error {
	line, err := ChecksumLine(record)
	if err != nil {
		return err
	}
	return WriteFileDurable(path, append(line, '\n'))
}

// ReadChecksummedFile reads a file written by WriteChecksummedFile and
// returns the verified record bytes. Verification failure is ErrCorrupt:
// the bytes are present but wrong, and rereading the same file cannot
// help.
func ReadChecksummedFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec, ok := VerifyLine(bytes.TrimSpace(data))
	if !ok {
		return nil, fmt.Errorf("%s: envelope checksum failed: %w", path, ErrCorrupt)
	}
	return rec, nil
}

// ErrJournalDead is returned by appends to a Journal after an earlier
// append failed.
var ErrJournalDead = errors.New("artifact: journal dead after a failed append")

// Journal is the append side of every checksummed-JSONL journal: one
// envelope line per record, fsynced before the append returns, safe for
// concurrent use. What the records mean, how they are keyed and which of
// them a restart trusts is the owning package's business.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	dead bool // an append failed; the file may end in a partial line
}

// OpenJournal opens (creating if needed) the journal at path for
// appending. A final line torn by a mid-write kill is truncated away
// first (RepairTornTail), so the next append starts on a fresh line
// instead of corrupt-concatenating with the torn bytes, which would lose
// both the torn record and the new one.
func OpenJournal(path string) (*Journal, error) {
	if err := RepairTornTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
}

// Append wraps one compact JSON record in its checksummed envelope,
// appends it as one line and fsyncs before returning, so an acknowledged
// record survives a SIGKILL. A failed write or fsync is returned and
// kills the journal — the file may now end mid-line, which the next
// OpenJournal repairs — and every later append returns ErrJournalDead.
func (j *Journal) Append(record []byte) error {
	line, err := ChecksumLine(record)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return ErrJournalDead
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		j.dead = true
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.dead = true
		return err
	}
	return nil
}

// Close releases the journal's file handle. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dead = true
	return j.f.Close()
}
