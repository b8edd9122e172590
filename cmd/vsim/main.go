// Command vsim simulates a gate-level Verilog design with random vectors.
//
// Modes:
//
//	-mode seq      sequential event-driven simulation (default)
//	-mode tw       Time Warp over k partitions (goroutines), each
//	               cluster waiting for its senders' watermarks
//	-mode model    deterministic cluster model: modeled parallel time,
//	               speedup, message and rollback counts
//	-mode dist     distributed Time Warp coordinator: partitions the
//	               design, waits for -workers vsimd processes to connect
//	               to -listen, and drives the run over real sockets
//
// Examples:
//
//	vsim -in design.v -top chip -cycles 10000
//	vsim -in design.v -top chip -cycles 10000 -mode tw -k 4 -b 10
//	vsim -in design.v -top chip -cycles 10000 -mode model -k 4 -b 7.5
//	vsim -in soc.v -top soc -mode tw -k 4 -chaos -trace soc.trace.json
//	vsim -in soc.v -top soc -mode tw -k 4 -serve 127.0.0.1:8080
//	vsim -in soc.v -top soc -mode tw -k 4 -chaos -blame
//	vsim -in soc.v -top soc -mode dist -k 4 -workers 2 -listen 127.0.0.1:7700
//	vsim -in soc.v -top soc -mode dist -k 4 -workers 2 -serve 127.0.0.1:8080 \
//	     -trace cluster.trace.json -postmortem-dir crashdump
//
// Every mode that produces waveforms prints a deterministic digest line
// ("waveforms sha256:..."), so sequential, in-process and distributed
// runs of the same design and seed can be diffed with grep alone.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/clustersim"
	"repro/internal/comm"
	"repro/internal/elab"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/obs/causality"
	"repro/internal/obs/serve"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/timewarp"
	"repro/internal/verilog"
)

func main() {
	var (
		in     = flag.String("in", "", "input Verilog file (required)")
		top    = flag.String("top", "", "top module name (required)")
		cycles = flag.Uint64("cycles", 10000, "number of random vectors")
		seed   = flag.Int64("seed", 1, "vector seed")
		mode   = flag.String("mode", "seq", "seq | tw | model | dist")
		k      = flag.Int("k", 2, "partitions (tw/model)")
		b      = flag.Float64("b", 10, "balance factor in percent (tw/model)")
		vcd    = flag.String("vcd", "", "dump primary-output waveforms to this VCD file (seq mode)")

		trace     = flag.String("trace", "", "write a Chrome trace (chrome://tracing, Perfetto) of the run to this file (tw mode; \"-\" = stdout)")
		metrics   = flag.String("metrics", "", "write a Prometheus-style metrics dump to this file (tw mode; \"-\" = stdout)")
		report    = flag.Bool("report", false, "print the human-readable observability report after the run (tw mode)")
		chaos     = flag.Bool("chaos", false, "deliver inter-cluster messages through the adversarial chaos transport (tw mode)")
		chaosSeed = flag.Int64("chaos-seed", 1, "chaos transport schedule seed")
		serveAddr = flag.String("serve", "", "serve live monitoring endpoints (/metrics /healthz /status /debug/pprof) on this host:port while the run executes (tw mode)")
		serveHold = flag.Duration("serve-hold", 0, "keep the monitoring server up this long after the run finishes (with -serve; for scripted scrapes and demos)")
		blame     = flag.Bool("blame", false, "record per-event causality and print the critical-path report after the run (tw mode)")

		listen     = flag.String("listen", "127.0.0.1:0", "coordinator control-plane bind address (dist mode); the chosen address is printed for workers to -connect to")
		workers    = flag.Int("workers", 0, "number of vsimd worker processes to wait for (dist mode, required, 1..k)")
		postmortem = flag.String("postmortem-dir", "", "write a flight-recorder bundle (merged metrics, merged trace tail, probe states, goroutine dump) into this directory if the run aborts (dist mode)")
	)
	flag.Parse()
	if *in == "" || *top == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Explicitly-set flags, for rejecting contradictory combinations: a
	// default value is fine, the same value typed out alongside a flag
	// that overrides it is a user error worth stopping.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(*mode, *k, *b, *cycles, *workers, set); err != nil {
		fmt.Fprintln(os.Stderr, "vsim:", err)
		os.Exit(2)
	}

	src, err := os.ReadFile(*in)
	fatal(err)
	d, err := verilog.Parse(string(src))
	fatal(err)
	ed, err := elab.Elaborate(d, *top)
	fatal(err)
	nl := ed.Netlist
	vs := sim.RandomVectors{Seed: *seed}

	switch *mode {
	case "seq":
		s, err := sim.New(nl)
		fatal(err)
		var vcdW *sim.VCDWriter
		if *vcd != "" {
			f, err := os.Create(*vcd)
			fatal(err)
			defer f.Close()
			vcdW, err = sim.NewVCDWriter(f, s, nl.POs)
			fatal(err)
		}
		// Step manually instead of s.Run so the PO values of every cycle
		// feed the waveform digest; the VCD writer's net-change hook sees
		// the identical event stream either way.
		obsWaves := make(map[netlist.NetID][]bool, len(nl.POs))
		for _, po := range nl.POs {
			obsWaves[po] = make([]bool, 0, *cycles)
		}
		buf := make([]bool, s.VectorWidth())
		start := time.Now()
		var events uint64
		for c := uint64(0); c < *cycles; c++ {
			vs.Vector(s.Cycle(), buf)
			ev, err := s.Step(buf)
			fatal(err)
			events += ev
			for _, po := range nl.POs {
				obsWaves[po] = append(obsWaves[po], s.Value(po))
			}
		}
		wall := time.Since(start)
		if vcdW != nil {
			fatal(vcdW.Close())
			fmt.Printf("wrote %s\n", *vcd)
		}
		fmt.Printf("sequential: %d cycles, %d events (%.1f/cycle), %d toggles, wall %v\n",
			*cycles, events, float64(events)/float64(*cycles), s.Toggles, wall.Round(time.Millisecond))
		fmt.Println(waveDigest(nl.POs, obsWaves))

	case "tw", "model":
		// The observer is created only when an export (or the monitoring
		// server) was requested, so an uninstrumented run pays a single
		// nil-check per site. (validateFlags lets none of these flags
		// through in model mode, so the model always runs unobserved.)
		var o *obs.Observer
		if *trace != "" || *metrics != "" || *report || *serveAddr != "" {
			o = obs.New(obs.Options{})
		}
		pr, err := partition.Multiway(ed, partition.Options{K: *k, B: *b, Obs: o})
		fatal(err)
		fmt.Printf("partition: k=%d b=%g cut=%d balanced=%v loads=%v\n",
			*k, *b, pr.Cut, pr.Balanced, pr.Loads)
		if *mode == "tw" {
			cfg := timewarp.Config{
				NL: nl, GateParts: pr.GateParts, K: *k, Vectors: vs, Cycles: *cycles,
				Obs: o,
			}
			if *chaos {
				cfg.Transport = comm.Chaos(comm.ChaosConfig{Seed: *chaosSeed, StallEvery: 16, Obs: o})
			}
			var rec *causality.Recorder
			if *blame {
				rec = causality.New()
				cfg.Causality = rec
			}
			var probe *timewarp.Probe
			var srv *serve.Server
			if *serveAddr != "" {
				probe = timewarp.NewProbe()
				cfg.Probe = probe
				srv, err = serve.Start(*serveAddr, serve.Options{
					Obs:    o,
					Health: func() (bool, string) { return probe.State().Health(0) },
					Status: func() any { return probe.State() },
				})
				fatal(err)
				fmt.Printf("monitoring on http://%s/\n", srv.Addr())
			}
			start := time.Now()
			res, err := timewarp.Run(cfg)
			fatal(err)
			wall := time.Since(start)
			st := res.Stats
			fmt.Printf("timewarp: events=%d msgs=%d linkwaits=%d wall %v\n",
				st.Events, st.Messages, st.LinkWaits, wall.Round(time.Millisecond))
			fmt.Println(waveDigest(nl.POs, res.Observed))
			if rec != nil {
				an := rec.Analyze()
				fmt.Print(an.String())
				o.AddReportSection("causality", an.String)
			}
			fatal(o.Dump(*trace, *metrics))
			if *trace != "" && *trace != "-" {
				fmt.Printf("wrote %s\n", *trace)
			}
			if *report {
				fmt.Print(o.Report())
			}
			if srv != nil {
				if *serveHold > 0 {
					fmt.Printf("holding monitoring server for %v\n", *serveHold)
					time.Sleep(*serveHold)
				}
				fatal(srv.Close())
			}
		} else {
			res, err := clustersim.Run(clustersim.Config{
				NL: nl, GateParts: pr.GateParts, K: *k, Vectors: vs, Cycles: *cycles,
			})
			fatal(err)
			fmt.Printf("model: seqTime=%.0f parTime=%.0f speedup=%.2f msgs=%d rollbacks=%d reexec=%d critPath=%.0f boundSpeedup=%.2f\n",
				res.SeqTime, res.ParTime, res.Speedup, res.Messages, res.Rollbacks, res.ReexecEvents,
				res.CritPath, res.BoundSpeedup)
		}

	case "dist":
		// The coordinator's observer holds every cluster's tw_* series,
		// fed by the workers' round reports, and the merged trace, so one
		// -metrics dump or /metrics scrape covers the whole cluster. The
		// flight recorder (-postmortem-dir) needs it too.
		var o *obs.Observer
		if *trace != "" || *metrics != "" || *report || *serveAddr != "" || *postmortem != "" {
			o = obs.New(obs.Options{})
		}
		pr, err := partition.Multiway(ed, partition.Options{K: *k, B: *b, Obs: o})
		fatal(err)
		fmt.Printf("partition: k=%d b=%g cut=%d balanced=%v loads=%v\n",
			*k, *b, pr.Cut, pr.Balanced, pr.Loads)
		spec := &timewarp.DistSpec{
			Source:    string(src),
			Top:       *top,
			GateParts: pr.GateParts,
			K:         *k,
			Cycles:    *cycles,
			VecSeed:   *seed,
		}
		var probe *timewarp.Probe
		var srv *serve.Server
		if *serveAddr != "" {
			probe = timewarp.NewProbe()
			srv, err = serve.Start(*serveAddr, serve.Options{
				Obs:    o,
				Health: func() (bool, string) { return probe.State().Health(0) },
				Status: func() any { return probe.State() },
			})
			fatal(err)
			fmt.Printf("monitoring on http://%s/\n", srv.Addr())
		}
		co, err := timewarp.NewCoordinator(timewarp.CoordConfig{
			Spec:          spec,
			Workers:       *workers,
			Listen:        *listen,
			Probe:         probe,
			Obs:           o,
			PostMortemDir: *postmortem,
		})
		fatal(err)
		// The exact line scripts parse to learn the port (with -listen :0).
		fmt.Printf("coordinator: %s (waiting for %d workers)\n", co.Addr(), *workers)
		start := time.Now()
		res, err := co.Run()
		fatal(err)
		wall := time.Since(start)
		st := res.Stats
		fmt.Printf("timewarp-dist: workers=%d events=%d msgs=%d cycles=%d wall %v\n",
			*workers, st.Events, st.Messages, res.FinalGVT, wall.Round(time.Millisecond))
		if st.Messages > 0 || res.WireFramesSent > 0 {
			fmt.Printf("wire: frames sent=%d recv=%d\n", res.WireFramesSent, res.WireFramesRecv)
		}
		if len(res.InvariantViolations) > 0 {
			fatal(fmt.Errorf("invariant violations: %v", res.InvariantViolations))
		}
		fmt.Println(waveDigest(nl.POs, res.Observed))
		// -trace writes the merged cluster trace (one Chrome-trace process
		// per node, worker clocks rebased onto the coordinator's); the
		// metrics dump and report render the coordinator's registry.
		if *trace != "" {
			w := os.Stdout
			if *trace != "-" {
				f, err := os.Create(*trace)
				fatal(err)
				defer f.Close()
				w = f
			}
			fatal(co.WriteMergedTrace(w))
			if *trace != "-" {
				fmt.Printf("wrote %s\n", *trace)
			}
		}
		fatal(o.Dump("", *metrics))
		if *report {
			fmt.Print(o.Report())
		}
		if srv != nil {
			if *serveHold > 0 {
				fmt.Printf("holding monitoring server for %v\n", *serveHold)
				time.Sleep(*serveHold)
			}
			fatal(srv.Close())
		}
	}
}

// waveDigest renders a deterministic fingerprint of the committed
// primary-output waveforms: one byte per (PO, cycle) in PO-list order,
// hashed with SHA-256. Identical waveforms — sequential, in-process Time
// Warp, distributed — print identical lines.
func waveDigest(pos []netlist.NetID, waves map[netlist.NetID][]bool) string {
	h := sha256.New()
	cycles := 0
	for _, po := range pos {
		vals := waves[po]
		if len(vals) > cycles {
			cycles = len(vals)
		}
		row := make([]byte, len(vals))
		for i, v := range vals {
			if v {
				row[i] = 1
			}
		}
		h.Write(row)
	}
	return fmt.Sprintf("waveforms sha256:%x (%d nets, %d cycles)", h.Sum(nil)[:12], len(pos), cycles)
}

// validateFlags rejects out-of-range values and nonsensical flag
// combinations up front, with an actionable message — the run would
// otherwise misbehave in ways that look like simulation bugs.
func validateFlags(mode string, k int, b float64, cycles uint64, workers int, set map[string]bool) error {
	switch mode {
	case "seq", "tw", "model", "dist":
	default:
		return fmt.Errorf("unknown -mode %q (want seq, tw, model or dist)", mode)
	}
	if cycles < 1 {
		return fmt.Errorf("-cycles must be >= 1 (got %d)", cycles)
	}
	parallel := mode == "tw" || mode == "model" || mode == "dist"
	if parallel {
		if k < 2 {
			return fmt.Errorf("-k must be >= 2 (got %d)", k)
		}
		if err := partition.CheckB(b); err != nil {
			return fmt.Errorf("-b %w", err)
		}
	}
	// Only the sequential simulator has a net-change hook to dump from.
	if mode != "seq" && set["vcd"] {
		return fmt.Errorf("-vcd only applies to -mode seq (mode is %q)", mode)
	}
	// Flags that only mean something to the in-process kernel are an
	// error elsewhere, not a silent no-op.
	if mode != "tw" {
		// The chaos transport and the causality recorder live inside the
		// in-process kernel; the distributed runtime has neither (its
		// adversary is the real network).
		for _, f := range []string{"chaos", "chaos-seed", "blame"} {
			if set[f] {
				return fmt.Errorf("-%s only applies to -mode tw (mode is %q)", f, mode)
			}
		}
	}
	if mode != "tw" && mode != "dist" {
		// The observability exports and the monitoring server work for
		// both the in-process kernel and the distributed coordinator (where
		// one scrape shows every cluster's counters and the trace merges
		// all clocks).
		for _, f := range []string{"trace", "metrics", "report", "serve", "serve-hold"} {
			if set[f] {
				return fmt.Errorf("-%s only applies to -mode tw or dist (mode is %q)", f, mode)
			}
		}
	}
	if set["serve-hold"] && !set["serve"] {
		return fmt.Errorf("-serve-hold needs -serve: there is no monitoring server to keep up")
	}
	if mode == "dist" {
		if workers < 1 {
			return fmt.Errorf("-mode dist needs -workers >= 1 (got %d): start that many vsimd processes pointed at the printed coordinator address", workers)
		}
		if workers > k {
			return fmt.Errorf("-workers %d exceeds -k %d: every worker must own at least one cluster", workers, k)
		}
	} else {
		for _, f := range []string{"listen", "workers", "postmortem-dir"} {
			if set[f] {
				return fmt.Errorf("-%s only applies to -mode dist (mode is %q)", f, mode)
			}
		}
	}
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsim:", err)
		os.Exit(1)
	}
}
