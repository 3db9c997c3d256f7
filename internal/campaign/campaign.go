// Package campaign is the coordinator half of the sharded campaign
// fabric (DESIGN.md §14): it takes one campaign — a set of sampling
// jobs, regions × experiments — and drives it to completion across a
// fleet of lpserved workers, surviving worker crashes, hangs, overload
// storms, corrupt responses, and its own coordinator being killed.
//
// The fabric is built from four load-bearing pieces:
//
//   - Content-addressed jobs. Every job's identity is the FNV-1a hash of
//     its canonical spec (KeyTagged). The key is the claim token workers
//     dedupe on, the cache address completed results live under, and the
//     journal's resume handle — three layers agreeing on one name is
//     what makes retries, steals, and resumes idempotent.
//   - Lease-based dispatch. Each dispatch carries a lease; when it
//     expires the job is re-enqueued ("stolen") while the original
//     attempt keeps running. First completion wins; late duplicates are
//     byte-compared against the winner and counted.
//   - A content-addressed result cache (an artifact.Store) backed by
//     checksummed files, so a resumed campaign re-simulates nothing it
//     already has.
//   - An fsync'd, checksummed JSONL journal (Journal) appended before a
//     completion is acknowledged, so a coordinator crash loses at most
//     the in-flight jobs — never a completed one.
package campaign

import (
	"encoding/json"
	"fmt"

	"looppoint/internal/artifact"
	"looppoint/internal/serve"
)

// SchemaVersion names the campaign wire/journal schema. It participates
// in every job key, so a schema change can never silently reuse a stale
// cache entry or journal entry.
const SchemaVersion = "v3"

// Spec is one campaign: the jobs to run. Order is preserved in the
// report; jobs whose canonical specs share a key are collapsed onto one
// execution.
type Spec struct {
	Jobs []serve.JobRequest `json:"jobs"`
}

// KeyTagged is the job's content address: a 16-hex-digit FNV-1a over the
// spec string, which includes the schema version and the campaign tag.
// j is serve.Canonical's output, so an implicit default and the explicit
// one share a key. Equal work under equal tags always hashes to the same
// key — across coordinator restarts, across workers, across machines.
func KeyTagged(tag string, j serve.JobRequest) string {
	sig := fmt.Sprintf("campaign/%s|tag=%s|class=%s|app=%s|input=%s|threads=%d|policy=%s|core=%s|full=%t",
		SchemaVersion, tag, j.Class, j.App, j.Input, j.Threads, j.Policy, j.Core, j.Full)
	return fmt.Sprintf("%016x", artifact.Checksum([]byte(sig)))
}

// Result is one completed job. Only Key, Job, and Res travel through
// JSON — they are the canonical bytes that journal entries, cache files,
// and duplicate-delivery comparison all use — while the provenance
// fields (which worker, whether the lease was stolen, attempt count)
// stay coordinator-local so a stolen job's result is byte-identical to
// an unstolen one.
type Result struct {
	Key string           `json:"key"`
	Job serve.JobRequest `json:"job"`
	Res *serve.JobResult `json:"result"`

	Worker   string `json:"-"`
	Stolen   bool   `json:"-"`
	Attempts int    `json:"-"`
}

// CanonicalBytes renders the result's identity bytes: the exact bytes
// journaled, cached, and compared when a stolen duplicate lands after
// the winner.
func (r *Result) CanonicalBytes() ([]byte, error) {
	return json.Marshal(r)
}

// CanonicalResult strips a worker's result of everything that varies
// between runs of the same job — queue wait, run time, server-minted vs
// key-derived id — leaving only what the job computed.
// Two honest executions of one key must produce byte-identical canonical
// results; anything else is a determinism bug and the duplicate
// comparison will say so.
func CanonicalResult(key string, res *serve.JobResult) *serve.JobResult {
	c := *res
	c.ID = key
	c.QueueWaitMS, c.RunMS = 0, 0
	return &c
}
