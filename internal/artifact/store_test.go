package artifact

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type entry struct {
	Key string `json:"key"`
	N   int    `json:"n"`
}

func validEntry(key string, e *entry) bool { return e.Key == key }

// TestCacheCorruptFileReadsAsMiss: the disk layer round-trips entries, and
// a file that fails its checksum or the client's validity check is
// counted, deleted, and re-missed — never served.
func TestCacheCorruptFileReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir, validEntry)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("job/npb-cg")
	want := &entry{Key: key, N: 7}
	if err := s1.Put(key, want); err != nil {
		t.Fatal(err)
	}

	s2, _ := NewStore(dir, validEntry) // cold memory: must come from disk
	got, ok := s2.Get(key)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("disk round-trip: got %+v, %v; want %+v", got, ok, want)
	}

	path := filepath.Join(dir, key+".json")
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 1
	os.WriteFile(path, data, 0o644)
	s3, _ := NewStore(dir, validEntry)
	if _, ok := s3.Get(key); ok {
		t.Fatal("corrupt store file was served")
	}
	if hits, misses, _, corrupt := s3.Counters(); hits != 0 || misses != 1 || corrupt != 1 {
		t.Fatalf("hits=%d misses=%d corrupt=%d, want 0/1/1", hits, misses, corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt store file should be deleted")
	}

	// An intact envelope holding another key's entry fails validity.
	other := Key("job/npb-ep")
	if err := s1.Put(other, want); err != nil {
		t.Fatal(err)
	}
	s4, _ := NewStore(dir, validEntry)
	if _, ok := s4.Get(other); ok {
		t.Fatal("an entry filed under the wrong key was served")
	}
	if _, _, _, corrupt := s4.Counters(); corrupt != 1 {
		t.Fatalf("corrupt counter %d, want 1", corrupt)
	}
}

// TestStoreSeamsFailAndCorrupt: a Put onto a blocked path — a directory
// at <key>.json — fails and leaves no temp file; a Get of it is a miss
// that leaves the directory in place (no bytes were proven bad); bytes
// flipped on disk fail the checksum, are counted corrupt, and the file
// goes.
func TestStoreSeamsFailAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	s, _ := NewStore[entry](dir, nil)
	if err := s.Put("a", &entry{N: 1}); err == nil {
		t.Fatal("Put onto a directory succeeded")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 || ents[0].Name() != "a.json" {
		t.Fatalf("a failed Put left %v", ents)
	}

	r, _ := NewStore[entry](dir, nil)
	if _, ok := r.Get("a"); ok {
		t.Fatal("a failed read was served")
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("a path that merely failed to read was deleted: %v", err)
	}
	if _, _, _, corrupt := r.Counters(); corrupt != 0 {
		t.Fatalf("a failed read counted %d corrupt", corrupt)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", &entry{N: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, _ = NewStore[entry](dir, nil)
	if _, ok := r.Get("a"); ok {
		t.Fatal("corrupted bytes were served")
	}
	if _, _, _, corrupt := r.Counters(); corrupt != 1 {
		t.Fatalf("corrupt counter %d, want 1", corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("the corrupt entry was not deleted")
	}
}
