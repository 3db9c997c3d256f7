package campaign

import (
	"encoding/json"
	"fmt"
	"os"

	"looppoint/internal/artifact"
)

// The campaign journal is the coordinator's crash log: one checksummed
// JSONL line per completed job, fsync'd before the completion is
// acknowledged. `lpcoord -resume` replays it to rehydrate completed
// results byte-identically — a killed coordinator re-simulates only what
// was in flight, never what had finished.
//
// Every line is one entry (artifact.ChecksumLine) and there is no header:
//
//	{"fnv1a":"0x…","record":{"key":"…","job":{…},"result":{…}}}
//
// An entry is named by its KeyTagged content address, which already
// covers the schema, the tag and the canonical job, so a journal written
// by another campaign needs no fingerprint to be told apart: its keys are
// simply not this campaign's tasks, and the coordinator seeds only the
// entries it looks up. A torn final line (power cut mid-append) is
// repaired away on open; a line that fails its checksum is skipped, and
// every intact entry around it is restored.

// Journal is an append-only, fsync'd campaign completion log.
type Journal struct {
	j *artifact.Journal
}

// OpenJournal opens (or creates) the journal at path, repairing a torn
// tail first, and returns every intact entry it holds. A missing or empty
// file yields zero restored results.
func OpenJournal(path string) (*Journal, []*Result, error) {
	aj, err := artifact.OpenJournal(path)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	data, err := os.ReadFile(path)
	var restored []*Result
	if err == nil {
		err = artifact.ScanRecords(data, func(rec []byte, valid bool) bool {
			var r Result
			if valid && json.Unmarshal(rec, &r) == nil && r.Key != "" && r.Res != nil {
				restored = append(restored, &r)
			}
			return true
		})
	}
	if err != nil {
		aj.Close()
		return nil, nil, fmt.Errorf("campaign: read journal: %w", err)
	}
	return &Journal{j: aj}, restored, nil
}

// Append records one completed job, fsync'd before returning — the
// completion is durable before the coordinator acknowledges it.
func (j *Journal) Append(r *Result) error {
	rec, err := r.CanonicalBytes()
	if err != nil {
		return err
	}
	if err := j.j.Append(rec); err != nil {
		return fmt.Errorf("campaign: append journal: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.j.Close() }
