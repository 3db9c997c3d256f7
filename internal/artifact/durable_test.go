package artifact

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFileDurableReplaces: writing over an existing file replaces it
// whole, and a successful write leaves no temp file behind for a loader
// to trip over.
func TestWriteFileDurableReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.progress")
	for _, want := range []string{"first epoch", "second"} {
		if err := WriteFileDurable(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read back %q (%v), want %q", got, err, want)
		}
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stray temp file %s after a successful write", e.Name())
		}
	}
}
