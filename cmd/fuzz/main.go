// Command fuzz runs the seed-driven differential fuzzing campaign:
// random circuits and stimulus, real partitioners, sequential reference
// vs Time Warp kernel under adversarial (chaos-transport) delivery, with
// kernel-invariant checks, an adversarial-enough link-wait bar, seed
// replay and a greedy shrinker that emits a minimal Go-test reproducer.
//
// Examples:
//
//	fuzz -runs 200                     # full campaign, chaos on
//	fuzz -runs 50 -chaos=false         # benign delivery only
//	fuzz -replay 1234567               # re-run one failing seed, verbose
//	fuzz -replay 1234567 -trace t.json # ... and dump its Chrome trace
//	fuzz -runs 200 -out report.txt     # also write the report to a file
//	fuzz -runs 200 -trace-dir traces   # Chrome trace per failing seed
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/obs/serve"
)

func main() {
	var (
		f         flags
		seed      = flag.Int64("seed", 1, "base seed; run i uses seed+i")
		chaos     = flag.Bool("chaos", true, "adversarial delivery-order transport")
		shrink    = flag.Bool("shrink", true, "shrink the first failure to a minimal reproducer")
		out       = flag.String("out", "", "also write the report to this file")
		traceDir  = flag.String("trace-dir", "", "write the Chrome trace of every FAILING seed into this directory")
		verbose   = flag.Bool("v", false, "one line per run")
		serveAddr = flag.String("serve", "", "serve live monitoring endpoints (/metrics /healthz /status /debug/pprof) on this host:port while the campaign runs")
	)
	flag.IntVar(&f.runs, "runs", 100, "number of differential runs (at least 1)")
	flag.Int64Var(&f.replay, "replay", 0, "replay this single seed verbosely and exit")
	flag.Float64Var(&f.minWait, "min-link-wait-frac", fuzz.DefaultMinLinkWaitFraction, "fraction of runs, 0..1, in which a link must hold a watermark past its publish (0 disables)")
	flag.DurationVar(&f.stall, "stall", 30*time.Second, "per-run stall timeout, positive (wedged-kernel detector)")
	flag.StringVar(&f.trace, "trace", "", "with -replay: write the replayed run's Chrome trace to this file (\"-\" = stdout)")
	flag.Parse()
	f.args = flag.Args()
	if err := validateFlags(f); err != nil {
		fmt.Fprintln(os.Stderr, "fuzz:", err)
		os.Exit(2)
	}

	if f.replay != 0 {
		spec := fuzz.NewSpec(f.replay, *chaos)
		fmt.Printf("replaying seed %d: %+v\n", f.replay, spec)
		var o *obs.Observer
		if f.trace != "" {
			o = obs.New(obs.Options{})
		}
		res := fuzz.ExecuteObserved(spec, nil, f.stall, o)
		fmt.Printf("partitioner=%s elapsed=%v stats=%+v finalGVT=%d\n",
			res.Partitioner, res.Elapsed.Round(time.Millisecond), res.Stats, res.FinalGVT)
		if err := o.Dump(f.trace, ""); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if res.Failed() {
			fmt.Printf("FAIL: %s\n", res.Failure())
			os.Exit(1)
		}
		fmt.Println("ok")
		return
	}

	var campObs *obs.Observer
	if *serveAddr != "" {
		campObs = obs.New(obs.Options{})
		srv, err := serve.Start(*serveAddr, serve.Options{Obs: campObs})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "monitoring on http://%s/\n", srv.Addr())
	}

	rep := fuzz.Campaign(fuzz.Config{
		Seed:                *seed,
		Runs:                f.runs,
		Chaos:               *chaos,
		MinLinkWaitFraction: f.minWait,
		StallTimeout:        f.stall,
		Verbose:             *verbose,
		Out:                 os.Stdout,
		TraceDir:            *traceDir,
		Obs:                 campObs,
	})
	text := rep.String()
	fmt.Print(text)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if err := rep.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if len(rep.Failures) > 0 && *shrink {
			first := rep.Failures[0]
			fmt.Printf("\nshrinking failing seed %d ...\n", first.Spec.Seed)
			min, res := fuzz.Shrink(first.Spec, nil, f.stall)
			fmt.Printf("minimal spec: %+v\n", min)
			fmt.Printf("replay: fuzz -replay %d -chaos=%v\n\n", min.Seed, min.Chaos != nil)
			fmt.Println(fuzz.ReproSnippet(min, res.Failure()))
		}
		os.Exit(1)
	}
}

// flags are the values validateFlags judges, and what the command line
// left over.
type flags struct {
	runs    int
	replay  int64
	minWait float64
	stall   time.Duration
	trace   string
	args    []string
}

// validateFlags rejects, before any run, a command line that would run a
// campaign of nothing, judge it by a bar no campaign can meet or miss, or
// silently drop what it was asked to do.
func validateFlags(f flags) error {
	switch {
	case len(f.args) > 0:
		return fmt.Errorf("unexpected arguments %q: fuzz takes flags only", f.args)
	case f.runs < 1:
		return fmt.Errorf("-runs must be at least 1 (got %d)", f.runs)
	case !(f.minWait >= 0 && f.minWait <= 1): // NaN too
		return fmt.Errorf("-min-link-wait-frac must be in 0..1 (got %g)", f.minWait)
	case f.stall <= 0:
		return fmt.Errorf("-stall must be positive (got %v)", f.stall)
	case f.trace != "" && f.replay == 0:
		return fmt.Errorf("-trace applies to -replay only; a campaign writes failing seeds' traces with -trace-dir")
	}
	return nil
}
