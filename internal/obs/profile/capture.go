package profile

import (
	"os"
	"path/filepath"
)

// Artifact names of the profile directory and the post-mortem bundle.
// Fixed names keep repeated writes size-capped on disk: a later write
// overwrites, never accumulates.
const (
	GoroutinesFile = "goroutines.txt"
	FlameFile      = "flame.folded"
)

// WriteFileAtomic writes data to path via a temp file and rename, so
// readers never observe a partial write and a repeated write (a double
// abort) is idempotent at every instant. Shared by vsim -profile-dir and
// the coordinator's profile and post-mortem bundle writers.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
