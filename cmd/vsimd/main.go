// Command vsimd is the worker daemon of a distributed Time Warp run. It
// dials a vsim coordinator (-mode dist), receives its cluster assignment
// and the run specification over the control connection, meshes with its
// peer workers over TCP, and simulates its share of the clusters,
// reporting their progress to the coordinator on a heartbeat, until the
// coordinator finishes or aborts the run. It carries no design
// inputs of its own — the coordinator ships the Verilog source and the
// partition, and every worker re-elaborates them deterministically.
//
// With -serve the worker exposes the obs monitoring server: /metrics
// scrapes its local registry (the per-cluster kernel series of the
// clusters it runs), and /healthz answers 503 as soon as the worker's
// kernel probe reports the run wedged or failed — the hook a process
// supervisor or Kubernetes liveness check wants. The coordinator's scrape
// already carries the clusters' counters (every report does), so -serve
// and -metrics are for what only this process holds: queue lengths.
//
// Examples:
//
//	vsimd -connect 127.0.0.1:7700
//	vsimd -connect coord.example:7700 -bind 0.0.0.0:0 -metrics worker.prom
//	vsimd -connect coord.example:7700 -serve 0.0.0.0:9110
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/timewarp"
)

func main() {
	var (
		connect    = flag.String("connect", "", "coordinator control-plane address (required)")
		bind       = flag.String("bind", "127.0.0.1:0", "data-plane listen address peer workers will dial; bind a routable interface for multi-host runs")
		dialTO     = flag.Duration("dial-timeout", 5*time.Second, "coordinator and peer dial timeout")
		metrics    = flag.String("metrics", "", "write a Prometheus-style dump of the worker's registry (its clusters' kernel series) to this file after the run (\"-\" = stdout)")
		serveAddr  = flag.String("serve", "", "serve /metrics, /healthz, /status and pprof on this address while the worker runs (e.g. 127.0.0.1:9110)")
		stallAfter = flag.Duration("stall-after", 0, "report unhealthy on /healthz after this long without progress (0 = 10s default)")
		obsOn      = flag.Bool("obs", true, "instrument the worker: its own metrics registry, and a trace ring shipped to the coordinator's merged trace; -obs=false runs bare (-metrics and /metrics are then empty; /healthz still reads the probe; the coordinator still gets every cluster's counters)")
	)
	flag.Parse()
	if err := validateFlags(*connect, *dialTO, *stallAfter, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "vsimd:", err)
		os.Exit(2)
	}

	// The observer feeds three consumers: the -metrics dump, the -serve
	// endpoint, and the trace ring the worker ships to the coordinator's
	// merged trace and post-mortem bundle. It is on by default, and
	// -obs=false drops all three.
	var o *obs.Observer
	if *obsOn {
		o = obs.New(obs.Options{})
	}
	probe := timewarp.NewProbe()

	if *serveAddr != "" {
		srv, err := serve.Start(*serveAddr, serve.Options{
			Obs: o,
			Health: func() (bool, string) {
				return probe.State().Health(*stallAfter)
			},
			Status: func() any { return probe.State() },
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "vsimd:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("vsimd: monitor: http://%s/\n", srv.Addr())
	}

	err := timewarp.RunWorker(timewarp.WorkerOptions{
		Coordinator: *connect,
		Bind:        *bind,
		DialTimeout: *dialTO,
		Obs:         o,
		Probe:       probe,
	})
	if *metrics != "" {
		if derr := o.Dump("", *metrics); derr != nil {
			fmt.Fprintln(os.Stderr, "vsimd:", derr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsimd:", err)
		os.Exit(1)
	}
	fmt.Println("vsimd: run complete")
}

// validateFlags rejects what no run can use, before anything is dialed:
// no coordinator to join, a dial that cannot wait, a negative stall bound,
// or arguments no flag reads (a forgotten "-connect" before the address).
func validateFlags(connect string, dialTimeout, stallAfter time.Duration, args []string) error {
	if connect == "" {
		return fmt.Errorf("-connect is required (the address printed by vsim -mode dist)")
	}
	if dialTimeout <= 0 {
		return fmt.Errorf("-dial-timeout must be > 0 (got %v)", dialTimeout)
	}
	if stallAfter < 0 {
		return fmt.Errorf("-stall-after must be >= 0 (got %v; 0 = 10s default)", stallAfter)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q: vsimd takes flags only", args)
	}
	return nil
}
