package artifact

import (
	"os"
	"path/filepath"
)

// WriteFileDurable writes data with the temp+fsync+rename idiom shared
// by every crash-safe artifact in the repository: the bytes go to a temp
// file in the destination directory, are fsynced, and only then renamed
// over the final path, and the directory is fsynced after the rename. A
// crash at any point leaves either the previous file or the complete new
// one — never a torn mix; a crash between the temp write and the rename
// leaves only a stray *.tmp* file that loaders ignore by name. The rename
// is atomic but only the directory fsync makes it durable: without it a
// power cut can drop the new name of a write that was already
// acknowledged.
func WriteFileDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, committing the entries renamed into it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
