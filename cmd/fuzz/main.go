// Command fuzz runs the seed-driven differential fuzzing campaign:
// random circuits and stimulus, real partitioners, sequential reference
// vs Time Warp kernel under adversarial (chaos-transport) delivery, with
// kernel-invariant checks, an adversarial-enough rollback bar, seed
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
		seed      = flag.Int64("seed", 1, "base seed; run i uses seed+i")
		runs      = flag.Int("runs", 100, "number of differential runs")
		chaos     = flag.Bool("chaos", true, "adversarial delivery-order transport")
		replay    = flag.Int64("replay", 0, "replay this single seed verbosely and exit")
		shrink    = flag.Bool("shrink", true, "shrink the first failure to a minimal reproducer")
		minRoll   = flag.Float64("min-rollback-frac", fuzz.DefaultMinRollbackFraction, "fraction of runs that must provoke ≥1 rollback (0 disables)")
		stall     = flag.Duration("stall", 30*time.Second, "per-run stall timeout (wedged-kernel detector)")
		out       = flag.String("out", "", "also write the report to this file")
		trace     = flag.String("trace", "", "with -replay: write the replayed run's Chrome trace to this file (\"-\" = stdout)")
		traceDir  = flag.String("trace-dir", "", "write the Chrome trace of every FAILING seed into this directory")
		verbose   = flag.Bool("v", false, "one line per run")
		serveAddr = flag.String("serve", "", "serve live monitoring endpoints (/metrics /healthz /status /debug/pprof) on this host:port while the campaign runs")
	)
	flag.Parse()

	if *replay != 0 {
		spec := fuzz.NewSpec(*replay, *chaos)
		fmt.Printf("replaying seed %d: %+v\n", *replay, spec)
		var o *obs.Observer
		if *trace != "" {
			o = obs.New(obs.Options{})
		}
		res := fuzz.ExecuteObserved(spec, nil, *stall, o)
		fmt.Printf("partitioner=%s elapsed=%v stats=%+v finalGVT=%d\n",
			res.Partitioner, res.Elapsed.Round(time.Millisecond), res.Stats, res.FinalGVT)
		if err := o.Dump(*trace, ""); err != nil {
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
		Runs:                *runs,
		Chaos:               *chaos,
		MinRollbackFraction: *minRoll,
		StallTimeout:        *stall,
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
			min, res := fuzz.Shrink(first.Spec, nil, *stall)
			fmt.Printf("minimal spec: %+v\n", min)
			fmt.Printf("replay: fuzz -replay %d -chaos=%v\n\n", min.Seed, min.Chaos != nil)
			fmt.Println(fuzz.ReproSnippet(min, res.Failure()))
		}
		os.Exit(1)
	}
}
