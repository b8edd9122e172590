package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignReferencesResolve holds every "DESIGN §N" and "DESIGN.md §N" of
// the repository's Go files, a comment wrapped between the two words
// included, to DESIGN.md: each names one of its "## N." headings, so a
// renumbering of the sections cannot leave a reference pointing at the
// wrong one.
func TestDesignReferencesResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllStringSubmatch(string(doc), -1) {
		sections[m[1]] = true
	}
	ref := regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//)*§\s*(\d+)`)
	refs := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range ref.FindAllStringSubmatch(string(src), -1) {
			refs++
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN §%s, which DESIGN.md has no \"## %s.\" heading for", path, m[1], m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("no DESIGN § reference found in any Go file")
	}
}
