// Command obscheck validates observability artifacts from the command
// line — the CI half of the observability plane. It checks a Prometheus
// text exposition with the same parser the obs test-suite uses and
// round-trips a Chrome trace through the package's own decoder, so a
// scraped /metrics body or an exported (merged) trace file can be gated
// in shell scripts without a Prometheus server or a browser.
//
// Examples:
//
//	curl -fsS http://127.0.0.1:8080/metrics | obscheck -prom -
//	obscheck -prom metrics.prom -require 'tw_batches{cluster="3"}'
//	obscheck -trace cluster.trace.json
//
// Exit status 0 when every requested check passes, 1 otherwise, 2 for a
// command line that asks for no check or for one that cannot apply.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
)

// checks names the artifacts one obscheck invocation validates. Empty
// strings skip; Require only applies to the Prom exposition.
type checks struct {
	Prom    string
	Trace   string
	Require string
}

func main() {
	var (
		prom    = flag.String("prom", "", "validate this Prometheus text exposition file (\"-\" = stdin)")
		trace   = flag.String("trace", "", "decode this Chrome trace file (\"-\" = stdin) and report its contents")
		require = flag.String("require", "", "with -prom: additionally require this substring to appear in the exposition (e.g. a series like tw_batches{cluster=\"3\"})")
	)
	flag.Parse()
	c := checks{Prom: *prom, Trace: *trace, Require: *require}
	if err := validateFlags(c, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(2)
	}
	os.Exit(run(c, os.Stdin, os.Stdout, os.Stderr))
}

// validateFlags rejects, before any file is read, a command line whose
// checks would not all be applied: no check at all, a -require with no
// exposition to search, or arguments no flag reads. Each would otherwise
// exit 0 having gated nothing.
func validateFlags(c checks, args []string) error {
	if c.Prom == "" && c.Trace == "" {
		return fmt.Errorf("nothing to do: pass -prom and/or -trace")
	}
	if c.Require != "" && c.Prom == "" {
		return fmt.Errorf("-require %q needs -prom: it searches the exposition", c.Require)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q: obscheck takes flags only", args)
	}
	return nil
}

// run performs the requested checks and returns the process exit code —
// the whole command minus flag handling and os.Exit, so the test-suite
// can drive every path in-process.
func run(c checks, stdin io.Reader, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "obscheck:", err)
		return 1
	}

	if c.Prom != "" {
		data, err := readInput(c.Prom, stdin)
		if err != nil {
			return fail(err)
		}
		n, err := obs.ValidatePrometheusText(data)
		if err != nil {
			return fail(fmt.Errorf("prometheus exposition invalid: %w", err))
		}
		if c.Require != "" && !strings.Contains(string(data), c.Require) {
			return fail(fmt.Errorf("exposition valid but does not contain %q", c.Require))
		}
		fmt.Fprintf(stdout, "obscheck: prometheus ok: %d samples\n", n)
	}

	if c.Trace != "" {
		data, err := readInput(c.Trace, stdin)
		if err != nil {
			return fail(err)
		}
		dec, err := obs.DecodeChromeTrace(strings.NewReader(string(data)))
		if err != nil {
			return fail(fmt.Errorf("chrome trace invalid: %w", err))
		}
		fmt.Fprintf(stdout, "obscheck: trace ok: %d events, %d processes, %d named tracks, %d dropped\n",
			len(dec.Events), len(dec.ProcessNames), len(dec.ThreadNames), dec.Dropped)
	}
	return 0
}

func readInput(path string, stdin io.Reader) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(stdin)
	}
	return os.ReadFile(path)
}
