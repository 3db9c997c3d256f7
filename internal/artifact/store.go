package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Key is a content address: 16 hex digits of the FNV-1a of sig, the
// canonical string of everything that changes a result's bytes.
func Key(sig string) string {
	return fmt.Sprintf("%016x", Checksum([]byte(sig)))
}

// Store is the one store of finished results. A finished result is a
// deterministic function of its inputs, so it is named by them: its key is
// a Key over everything that changes its bytes, and "another
// configuration" is simply another key. No fingerprint, header or version
// constant stands between a reader and an entry; a client versions its
// record schema with a tag inside the key. The campaign result cache, the
// harness resume directory and core's region results are its clients.
//
// It has two layers: an in-memory map and, with a directory, one
// <key>.json file per entry, a checksummed envelope published by
// WriteChecksummedFile (temp + fsync + rename + directory fsync), so a
// reader only ever sees a missing entry or a complete one, also when
// several writers store one key at once. An entry whose bytes fail the
// checksum, do not decode or fail the client's validity check is counted
// corrupt, deleted and read as a miss: a damaged store re-runs the work,
// it never serves garbage. All methods are safe for concurrent use.
type Store[T any] struct {
	dir   string
	valid func(key string, v *T) bool

	mu  sync.Mutex
	mem map[string]*T

	hits, misses, stores, corrupt atomic.Uint64
}

// NewStore builds a store over dir (created if needed; "" keeps it
// memory-only). valid, when non-nil, vets every entry read from disk.
func NewStore[T any](dir string, valid func(key string, v *T) bool) (*Store[T], error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Store[T]{dir: dir, valid: valid, mem: make(map[string]*T)}, nil
}

// Seed preloads an entry into memory without touching the counters, so
// the next Get of key counts as the hit it is.
func (s *Store[T]) Seed(key string, v *T) {
	s.mu.Lock()
	s.mem[key] = v
	s.mu.Unlock()
}

// Get returns the entry for key, from memory first and then from disk.
func (s *Store[T]) Get(key string) (*T, bool) {
	s.mu.Lock()
	v, ok := s.mem[key]
	s.mu.Unlock()
	if !ok && s.dir != "" {
		if v = s.read(key); v != nil {
			s.Seed(key, v)
			ok = true
		}
	}
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return v, true
}

func (s *Store[T]) path(key string) string { return filepath.Join(s.dir, key+".json") }

func (s *Store[T]) read(key string) *T {
	path := s.path(key)
	rec, err := ReadChecksummedFile(path)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			s.drop(path)
		}
		return nil
	}
	v := new(T)
	if json.Unmarshal(rec, v) != nil || (s.valid != nil && !s.valid(key, v)) {
		s.drop(path)
		return nil
	}
	return v
}

func (s *Store[T]) drop(path string) {
	s.corrupt.Add(1)
	os.Remove(path)
}

// Put stores an entry in memory and, with a directory, durably on disk:
// once Put returns nil the entry survives a SIGKILL or a power cut.
func (s *Store[T]) Put(key string, v *T) error {
	s.Seed(key, v)
	s.stores.Add(1)
	if s.dir == "" {
		return nil
	}
	rec, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return WriteChecksummedFile(s.path(key), rec)
}

// Counters returns (hits, misses, stores, corrupt).
func (s *Store[T]) Counters() (hits, misses, stores, corrupt uint64) {
	return s.hits.Load(), s.misses.Load(), s.stores.Load(), s.corrupt.Load()
}
