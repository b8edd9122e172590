package timewarp

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.txt")
	if err := writeFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "second" {
		t.Fatalf("read = (%q, %v)", data, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp litter after rewrite: %d entries", len(entries))
	}
	if err := writeFileAtomic(filepath.Join(dir, "absent", "x"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestPostMortemFailureJoinsRunError: a bundle that cannot be written is
// part of the run's error, not a line on stdout — the stream the dist
// scripts parse for the coordinator's address — and the run's own cause
// still matches errors.Is.
func TestPostMortemFailureJoinsRunError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(CoordConfig{
		Spec:          &DistSpec{Source: "m", Top: "m", GateParts: []int32{0}, K: 1, Cycles: 1},
		Workers:       1,
		Watchdog:      20 * time.Millisecond, // no worker comes: the handshake times out
		PostMortemDir: filepath.Join(file, "bundle"),
	})
	if err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	_, runErr := co.Run()
	os.Stdout = stdout
	w.Close()
	printed, _ := io.ReadAll(r)
	r.Close()

	if len(printed) > 0 {
		t.Errorf("the coordinator printed %q", printed)
	}
	if runErr == nil {
		t.Fatal("a run with no worker succeeded")
	}
	msg := runErr.Error()
	if !strings.Contains(msg, "only 0 of 1 workers connected") || !strings.Contains(msg, "post-mortem bundle") {
		t.Errorf("error %q does not name both causes", msg)
	}
	if !errors.Is(runErr, os.ErrDeadlineExceeded) {
		t.Errorf("error %q no longer matches its cause, the accept deadline", msg)
	}
	if !errors.Is(runErr, syscall.ENOTDIR) {
		t.Errorf("error %q does not carry the bundle's cause", msg)
	}
}
