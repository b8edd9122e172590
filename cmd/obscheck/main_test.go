package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// writeFile drops content into a temp file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// validTrace renders a real Chrome trace through the obs exporter, so
// the test exercises the same bytes a run would produce.
func validTrace(t *testing.T) string {
	t.Helper()
	o := obs.New(obs.Options{})
	t0 := o.Start()
	o.Span(obs.TrackKernel, "phase", t0)
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

const validProm = `# HELP tw_gvt quiescent global virtual time in cycles
# TYPE tw_gvt gauge
tw_gvt{worker="1"} 42
`

func runCheck(t *testing.T, c checks) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(c, strings.NewReader(""), &out, &errw)
	return code, out.String(), errw.String()
}

func TestRunPromValid(t *testing.T) {
	code, out, _ := runCheck(t, checks{Prom: writeFile(t, "m.prom", validProm)})
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(out, "prometheus ok") {
		t.Fatalf("stdout %q", out)
	}
}

func TestRunPromInvalid(t *testing.T) {
	code, _, errw := runCheck(t, checks{Prom: writeFile(t, "m.prom", "tw_gvt{ 42\n")})
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw, "invalid") {
		t.Fatalf("stderr %q", errw)
	}
}

func TestRunPromRequire(t *testing.T) {
	path := writeFile(t, "m.prom", validProm)
	if code, _, _ := runCheck(t, checks{Prom: path, Require: `worker="1"`}); code != 0 {
		t.Fatalf("required substring present, got exit %d", code)
	}
	code, _, errw := runCheck(t, checks{Prom: path, Require: `worker="9"`})
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw, "does not contain") {
		t.Fatalf("stderr %q", errw)
	}
}

func TestRunTraceValid(t *testing.T) {
	code, out, _ := runCheck(t, checks{Trace: writeFile(t, "t.json", validTrace(t))})
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(out, "trace ok") {
		t.Fatalf("stdout %q", out)
	}
}

func TestRunTraceInvalid(t *testing.T) {
	if code, _, _ := runCheck(t, checks{Trace: writeFile(t, "t.json", "{not a trace")}); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestRunMissingFile(t *testing.T) {
	if code, _, _ := runCheck(t, checks{Trace: filepath.Join(t.TempDir(), "absent")}); code != 1 {
		t.Fatal("missing file must exit 1")
	}
}

func TestRunStdin(t *testing.T) {
	var out, errw bytes.Buffer
	code := run(checks{Prom: "-"}, strings.NewReader(validProm), &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, errw.String())
	}
}

// TestRunAllChecks exercises the multi-artifact invocation CI uses: every
// requested file must pass for exit 0, and the first failure wins.
func TestRunAllChecks(t *testing.T) {
	prom := writeFile(t, "m.prom", validProm)
	trace := writeFile(t, "t.json", validTrace(t))
	if code, _, _ := runCheck(t, checks{Prom: prom, Trace: trace, Require: `worker="1"`}); code != 0 {
		t.Fatal("all-valid invocation must exit 0")
	}
	bad := writeFile(t, "bad.json", "nope\n")
	if code, _, _ := runCheck(t, checks{Prom: prom, Trace: bad}); code != 1 {
		t.Fatal("one invalid artifact must exit 1")
	}
}

// TestValidateFlags: a command line whose checks would not all be applied
// is a usage error (exit 2 in main), before any file is read — a CI gate
// must not pass by checking nothing.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		c    checks
		args []string
		want string // substring of the error; "" = accepted
	}{
		{"prom", checks{Prom: "m.prom"}, nil, ""},
		{"trace", checks{Trace: "t.json"}, nil, ""},
		{"prom with require", checks{Prom: "m.prom", Require: `worker="1"`}, nil, ""},
		{"both", checks{Prom: "m.prom", Trace: "t.json", Require: "x"}, nil, ""},
		{"nothing", checks{}, nil, "nothing to do"},
		{"require alone", checks{Require: "x"}, nil, "nothing to do"},
		{"require without prom", checks{Trace: "t.json", Require: `worker="1"`}, nil, "needs -prom"},
		{"stray argument", checks{Trace: "t.json"}, []string{"m.prom"}, `unexpected arguments ["m.prom"]`},
	}
	for _, c := range cases {
		err := validateFlags(c.c, c.args)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// The "nothing to do" exit 2 lives in main's flag handling; run itself
// treats an empty checks value as a no-op success, which keeps it
// composable. Pin that contract.
func TestRunEmptyChecks(t *testing.T) {
	if code := run(checks{}, strings.NewReader(""), io.Discard, io.Discard); code != 0 {
		t.Fatal("empty checks must be a no-op")
	}
}
