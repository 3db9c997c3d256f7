package campaign

import (
	"encoding/json"
	"fmt"
	"os"

	"looppoint/internal/artifact"
)

// The campaign journal is the coordinator's crash log: one checksummed
// JSONL line per completed job, fsync'd before the completion is
// acknowledged, preceded by a header line binding the file to this
// campaign's config fingerprint. `lpcoord -resume` replays it to
// rehydrate completed results byte-identically — a killed coordinator
// re-simulates only what was in flight, never what had finished.
//
// Schema v3 (one envelope per line, artifact.ChecksumLine):
//
//	{"fnv1a":"0x…","record":{"campaign":"v3","config":"0x…","tag":"…"}}   header
//	{"fnv1a":"0x…","record":{"key":"…","job":{…},"result":{…}}}          entry
//
// A torn final line (power cut mid-append) is repaired away on open; a
// header whose fingerprint does not match the resuming campaign resets
// the journal rather than resuming someone else's work.

// journalHeader is the first record of every campaign journal.
type journalHeader struct {
	Campaign string `json:"campaign"`
	Config   string `json:"config"`
	Tag      string `json:"tag"`
}

// ConfigFingerprint is the journal-compatibility stamp: a resume only
// trusts a journal whose header carries the fingerprint of the campaign
// being resumed (same schema, same tag). Job-level compatibility needs
// no fingerprint — keys are content-addressed, so entries for jobs no
// longer in the spec are simply never looked up.
func ConfigFingerprint(tag string) string {
	return fmt.Sprintf("%#x", artifact.Checksum([]byte("campaign-journal/"+SchemaVersion+"|tag="+tag)))
}

// Journal is an append-only, fsync'd campaign completion log.
type Journal struct {
	j *artifact.Journal
}

// OpenJournal opens (or creates) the journal at path for the campaign
// identified by tag, repairing a torn tail first, and returns the
// results already recorded. A missing file, an empty file, or a header
// from a different campaign config yields a fresh journal and zero
// restored results.
func OpenJournal(path, tag string) (*Journal, []*Result, error) {
	aj, err := artifact.OpenJournal(path)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	restored, ok, err := loadJournal(path, tag)
	if err != nil {
		aj.Close()
		return nil, nil, err
	}
	if !ok {
		// No trustworthy header: reset and start a fresh journal for
		// this campaign (the append handle writes at the new end).
		restored = nil
		hdr, err := json.Marshal(journalHeader{Campaign: SchemaVersion, Config: ConfigFingerprint(tag), Tag: tag})
		if err == nil {
			err = os.Truncate(path, 0)
		}
		if err == nil {
			err = aj.Append(hdr)
		}
		if err != nil {
			aj.Close()
			return nil, nil, fmt.Errorf("campaign: reset journal: %w", err)
		}
	}
	return &Journal{j: aj}, restored, nil
}

// loadJournal reads every verified record; ok reports whether the file
// carries a matching header (i.e. appending to it is safe).
func loadJournal(path, tag string) (restored []*Result, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("campaign: read journal: %w", err)
	}
	want := ConfigFingerprint(tag)
	first := true
	err = artifact.ScanRecords(data, func(rec []byte, valid bool) bool {
		if !valid {
			// A checksum-failing interior line means the file was
			// corrupted at rest, not torn mid-append (RepairTornTail
			// already ran). Nothing after it can be trusted to belong to
			// this campaign's sequence.
			return false
		}
		if first {
			var hdr journalHeader
			if json.Unmarshal(rec, &hdr) != nil || hdr.Campaign != SchemaVersion || hdr.Config != want {
				return false
			}
			first = false
			return true
		}
		var r Result
		if json.Unmarshal(rec, &r) == nil && r.Key != "" && r.Res != nil {
			restored = append(restored, &r)
		}
		return true
	})
	if err != nil {
		return nil, false, fmt.Errorf("campaign: scan journal: %w", err)
	}
	return restored, !first, nil
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
