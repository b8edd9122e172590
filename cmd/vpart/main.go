// Command vpart partitions a gate-level Verilog design and reports the
// hyperedge cut and per-partition loads.
//
// Usage:
//
//	vpart -in design.v -top mychip -k 4 -b 10                 # design-driven
//	vpart -in design.v -top mychip -k 4 -b 10 -algo ml        # multilevel (flat)
//	vpart -in design.v -top mychip -k 4 -b 10 -algo nlevel    # n-level (flat)
//	vpart -in design.v -top mychip -k 2 -b 10 -strategy cut   # pairing choice
//	vpart -in design.v -top mychip -k 4 -b 10 -json           # scriptable report
//	vpart -in design.v -top mychip -k 4 -b 10 -out parts.txt
//
// Every run also prints the copies the Time Warp kernel would evaluate for
// the partition — each cluster's copied combinational gates — each
// cluster's fused table size in records, and the cut's split into
// flip-flop-driven and gate-driven nets, the latter being what the copies
// keep off the wire.
//
// The optional output file lists one "gatePath partition" pair per line.
// With -json, a machine-readable cut-quality report (cut size, per-block
// loads, imbalance ratio, levels, winning restart, wall time) is written
// to stdout so flat-vs-n-level comparisons are scriptable; the human
// summary moves to stderr.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/elab"
	"repro/internal/multilevel"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/timewarp"
	"repro/internal/verilog"
)

// report is the -json cut-quality document.
type report struct {
	Algo      string  `json:"algo"`
	K         int     `json:"k"`
	B         float64 `json:"b"`
	Seed      int64   `json:"seed"`
	Cut       int     `json:"cut"`
	Loads     []int   `json:"loads"`
	Balanced  bool    `json:"balanced"`
	Imbalance float64 `json:"imbalance"` // max load / ideal load
	WindowLo  int     `json:"window_lo"`
	WindowHi  int     `json:"window_hi"`
	Levels    int     `json:"levels,omitempty"`    // coarsening levels / rounds
	Restart   int     `json:"restart"`             // winning restart index
	Flattened int     `json:"flattened,omitempty"` // dd only
	WallMS    float64 `json:"wall_ms"`
	Gates     int     `json:"gates"`
	Nets      int     `json:"nets"`
}

func (r *report) fill(total int) {
	ideal := float64(total) / float64(r.K)
	maxLoad := 0
	for _, l := range r.Loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	if ideal > 0 {
		r.Imbalance = float64(maxLoad) / ideal
	}
	c := partition.Constraint{K: r.K, B: r.B, Total: total}
	r.WindowLo, r.WindowHi = c.Bounds()
}

func main() {
	var (
		in       = flag.String("in", "", "input Verilog file (required)")
		top      = flag.String("top", "", "top module name (required)")
		k        = flag.Int("k", 2, "number of partitions")
		b        = flag.Float64("b", 10, "load balance factor in percent")
		algo     = flag.String("algo", "dd", "partitioner: dd (design-driven) | ml (flat multilevel) | nlevel (flat n-level)")
		strategy = flag.String("strategy", "gain", "dd pairing strategy: random | exhaustive | cut | gain")
		seed     = flag.Int64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "parallelism for dd restarts and ml/nlevel coarsening, restarts and refinement (0 = all cores; the result is identical at any value)")
		jsonOut  = flag.Bool("json", false, "write a machine-readable cut-quality report to stdout (human summary goes to stderr)")
		out      = flag.String("out", "", "write gate→partition mapping to this file")
		opt      = flag.Bool("opt", false, "run constant propagation + dead-gate sweep first")
	)
	flag.Parse()
	if *in == "" || *top == "" {
		flag.Usage()
		os.Exit(2)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(*algo, *strategy, *k, *b, *opt, set); err != nil {
		fmt.Fprintln(os.Stderr, "vpart:", err)
		os.Exit(2)
	}

	// With -json, stdout carries only the report.
	human := os.Stdout
	if *jsonOut {
		human = os.Stderr
	}

	src, err := os.ReadFile(*in)
	fatal(err)
	d, err := verilog.Parse(string(src))
	fatal(err)
	ed, err := elab.Elaborate(d, *top)
	fatal(err)
	st := ed.Netlist.Stats()
	fmt.Fprintf(human, "design: %d gates, %d nets, %d module instances\n",
		st.Gates, st.Nets, len(ed.Instances)-1)
	if *opt {
		optNL, _, res, err := ed.Netlist.Optimize()
		fatal(err)
		fmt.Fprintf(human, "optimized: %s\n", res)
		ed.Netlist = optNL
	}

	rep := report{Algo: *algo, K: *k, B: *b, Seed: *seed, Gates: st.Gates, Nets: st.Nets}
	var gateParts []int32
	t0 := time.Now()
	switch *algo {
	case "dd":
		ps, _ := partition.ParsePairingStrategy(*strategy)
		res, err := partition.Multiway(ed, partition.Options{
			K: *k, B: *b, Strategy: ps, Seed: *seed, Workers: *workers,
		})
		fatal(err)
		fmt.Fprintf(human, "design-driven: cut=%d balanced=%v loads=%v flattened=%d (%s)\n",
			res.Cut, res.Balanced, res.Loads, res.Flattened, res.Constraint)
		gateParts = res.GateParts
		rep.Cut, rep.Loads, rep.Balanced, rep.Flattened = res.Cut, res.Loads, res.Balanced, res.Flattened
	case "ml", "nlevel":
		// One skeleton, two refinement policies; the entry point selects.
		engine, label := multilevel.PartitionFlat, "multilevel(flat)"
		if *algo == "nlevel" {
			engine, label = multilevel.PartitionNFlat, "nlevel(flat)"
		}
		_, res, err := engine(ed, multilevel.Options{
			K: *k, B: *b, Seed: *seed, Workers: *workers,
		})
		fatal(err)
		fmt.Fprintf(human, "%s: cut=%d balanced=%v loads=%v rounds=%d restart=%d\n",
			label, res.Cut, res.Balanced, res.Loads, res.Levels, res.Restart)
		gateParts = res.GateParts
		rep.Cut, rep.Loads, rep.Balanced, rep.Levels, rep.Restart = res.Cut, res.Loads, res.Balanced, res.Levels, res.Restart
	}
	rep.WallMS = float64(time.Since(t0).Microseconds()) / 1000.0
	copies, records, err := timewarp.Tables(ed.Netlist, gateParts, *k)
	fatal(err)
	fmt.Fprintln(human, replicationLine(ed.Netlist, gateParts, copies, records))

	if *jsonOut {
		total := 0
		for _, l := range rep.Loads {
			total += l
		}
		rep.fill(total)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(&rep))
	}

	if *out != "" {
		f, err := os.Create(*out)
		fatal(err)
		defer f.Close()
		w := bufio.NewWriter(f)
		for gi := range ed.Netlist.Gates {
			fmt.Fprintf(w, "%s %d\n", ed.Netlist.Gates[gi].Path, gateParts[gi])
		}
		fatal(w.Flush())
	}
}

// replicationLine reports each cluster's copies, their share of the
// design's gates, each cluster's fused records, and the cut nets split by
// the kind of gate driving them: "copies 0,40 (0.2 %); records 3052,3135;
// cut 142 = 110 flip-flop-driven + 32 gate-driven".
func replicationLine(nl *netlist.Netlist, gateParts []int32, copies, records []int) string {
	list := func(v []int) []byte {
		var b []byte
		for i, c := range v {
			if i > 0 {
				b = append(b, ',')
			}
			b = fmt.Appendf(b, "%d", c)
		}
		return b
	}
	total := 0
	for _, c := range copies {
		total += c
	}
	ffDriven, gateDriven := 0, 0
	for n := range nl.Nets {
		d := nl.Nets[n].Driver
		if d == netlist.NoGate {
			continue
		}
		for _, s := range nl.Nets[n].Sinks {
			if gateParts[s] != gateParts[d] {
				if nl.Gates[d].Kind.Sequential() {
					ffDriven++
				} else {
					gateDriven++
				}
				break
			}
		}
	}
	return fmt.Sprintf("copies %s (%.1f %%); records %s; cut %d = %d flip-flop-driven + %d gate-driven",
		list(copies), 100*float64(total)/float64(len(nl.Gates)), list(records), ffDriven+gateDriven, ffDriven, gateDriven)
}

// validateFlags rejects what the partitioners would refuse, or silently
// ignore, only after the design has been read, parsed and elaborated. set
// holds the flags given explicitly: a default left alone is never an error.
func validateFlags(algo, strategy string, k int, b float64, opt bool, set map[string]bool) error {
	switch algo {
	case "dd":
		if _, ok := partition.ParsePairingStrategy(strategy); !ok {
			return fmt.Errorf("unknown -strategy %q (want random, exhaustive, cut or gain)", strategy)
		}
		// Optimization rewrites the flat netlist; the hierarchy-aware
		// design-driven algorithm needs the original instance tree.
		if opt {
			return fmt.Errorf("-opt only applies to -algo ml or nlevel (optimization discards the hierarchy -algo dd partitions)")
		}
	case "ml", "nlevel":
		if set["strategy"] {
			return fmt.Errorf("-strategy only applies to -algo dd (algo is %q)", algo)
		}
	default:
		return fmt.Errorf("unknown -algo %q (want dd, ml or nlevel)", algo)
	}
	if k < 2 {
		return fmt.Errorf("-k must be >= 2 (got %d)", k)
	}
	if err := partition.CheckB(b); err != nil {
		return fmt.Errorf("-b %w", err)
	}
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpart:", err)
		os.Exit(1)
	}
}
