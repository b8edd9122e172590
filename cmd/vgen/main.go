// Command vgen generates synthetic hierarchical gate-level Verilog
// circuits (the workload generators of this repository) and writes the
// source to stdout or a file.
//
// Usage:
//
//	vgen -circuit viterbi -k 7 -w 8 -tb 24 > viterbi.v
//	vgen -circuit soc -channels 2 > soc.v
//	vgen -circuit mul -n 16
//	vgen -circuit lfsr -n 32
//	vgen -circuit randhier -seed 7 -modules 12 -gates 40 -top 24
//	vgen -circuit viterbi -stats          # print netlist statistics only
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
)

func main() {
	var (
		f     flags
		out   = flag.String("o", "", "output file (default stdout)")
		stats = flag.Bool("stats", false, "elaborate and print statistics instead of emitting source")
		tree  = flag.Int("tree", -2, "print the instance hierarchy to this depth (-1 = unlimited)")
		seed  = flag.Int64("seed", 1, "randhier: generation seed")
	)
	flag.StringVar(&f.circuit, "circuit", "viterbi", "circuit family: viterbi | soc | mul | lfsr | randhier")
	flag.IntVar(&f.k, "k", 7, "viterbi/soc: constraint length, 1..30 (states = 2^(k-1); 0 = the default, 7)")
	flag.IntVar(&f.w, "w", 8, "viterbi/soc: path metric width in bits, at least 2 (0 = the default, 8)")
	flag.IntVar(&f.tb, "tb", 24, "viterbi/soc: survivor path depth, at least 2 (0 = the generator's default, 32)")
	flag.IntVar(&f.channels, "channels", 0, "soc: decoder channels (0 = default SoC: 2 channels around the default core, whatever -k, -w, -tb)")
	flag.IntVar(&f.n, "n", 16, "mul/lfsr: operand width (1..2048) / register length (at least 3)")
	flag.IntVar(&f.modules, "modules", 12, "randhier: module library size")
	flag.IntVar(&f.gates, "gates", 40, "randhier: approx gates per module")
	flag.IntVar(&f.insts, "insts", 3, "randhier: approx child instances per module (0 = none)")
	flag.IntVar(&f.top, "top", 24, "randhier: instances in the top module")
	flag.IntVar(&f.pis, "pis", 16, "randhier: primary inputs")
	flag.Parse()
	f.args = flag.Args()
	if err := validateFlags(f); err != nil {
		fmt.Fprintln(os.Stderr, "vgen:", err)
		os.Exit(2)
	}

	var c *gen.Circuit
	switch f.circuit {
	case "viterbi":
		c = gen.Viterbi(gen.ViterbiConfig{K: f.k, W: f.w, TB: f.tb})
	case "soc":
		cfg := gen.DefaultSoC
		if f.channels > 0 {
			cfg.Channels = f.channels
			cfg.Viterbi = gen.ViterbiConfig{K: f.k, W: f.w, TB: f.tb}
		}
		c = gen.ViterbiSoC(cfg)
	case "mul":
		c = gen.Multiplier(f.n)
	case "lfsr":
		c = gen.LFSR(f.n, nil)
	case "randhier":
		c = gen.RandomHierarchical(gen.RandHierConfig{
			ModuleTypes: f.modules, GatesPerModule: f.gates,
			InstancesPerModule: f.insts, TopInstances: f.top,
			PIs: f.pis, Seed: *seed, DFFFraction: 0.25,
		})
	}

	if *tree >= -1 {
		ed, err := c.Elaborate()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vgen:", err)
			os.Exit(1)
		}
		if err := ed.WriteHierarchy(os.Stdout, *tree); err != nil {
			fmt.Fprintln(os.Stderr, "vgen:", err)
			os.Exit(1)
		}
		return
	}
	if *stats {
		ed, err := c.Elaborate()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vgen:", err)
			os.Exit(1)
		}
		st := ed.Netlist.Stats()
		depth, _ := ed.Netlist.Depth()
		fmt.Printf("circuit:    %s (top module %s)\n", c.Name, c.Top)
		fmt.Printf("gates:      %d (%d combinational, %d dff)\n", st.Gates, st.Combinational, st.DFFs)
		fmt.Printf("nets:       %d\n", st.Nets)
		fmt.Printf("PIs/POs:    %d / %d\n", st.PIs, st.POs)
		fmt.Printf("instances:  %d (max depth %d)\n", len(ed.Instances), ed.MaxDepth())
		fmt.Printf("logic depth: %d\n", depth)
		return
	}

	w8 := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w8 = f
	}
	if _, err := w8.WriteString(c.Source); err != nil {
		fmt.Fprintln(os.Stderr, "vgen:", err)
		os.Exit(1)
	}
}

// flags are the values that size a generated circuit, and what the command
// line left over.
type flags struct {
	circuit                         string
	k, w, tb, channels, n           int
	modules, gates, insts, top, pis int
	args                            []string
}

// maxBits is the elaborator's bound on a design's signal bits (elab's
// maxSignalBits): vgen generates nothing no tool of this repository loads.
const maxBits = 1 << 27

// flagRange is one flag a circuit family reads and the values its generator
// can build.
type flagRange struct {
	name      string
	v, lo, hi int
}

// validateFlags rejects, before anything is generated, a size the chosen
// generator cannot build (it would emit source that does not parse, or
// never return) and arguments no flag reads. Flags of the other circuit
// families are ignored, as the generators ignore them.
func validateFlags(f flags) error {
	if len(f.args) > 0 {
		return fmt.Errorf("unexpected arguments %q: vgen takes flags only", f.args)
	}
	var ranges []flagRange
	k, w, tb := f.k, f.w, f.tb // 0 is the generator's default
	switch f.circuit {
	case "viterbi", "soc":
		if k == 0 {
			k = 7
		}
		if w == 0 {
			w = 8
		}
		if tb == 0 {
			tb = 32
		}
		ranges = []flagRange{{"k", k, 1, 30}, {"w", w, 2, 1 << 16}, {"tb", tb, 2, 1 << 16}, {"channels", f.channels, 0, 1 << 10}}
	case "mul":
		ranges = []flagRange{{"n", f.n, 1, 2048}}
	case "lfsr":
		ranges = []flagRange{{"n", f.n, 3, 1 << 20}}
	case "randhier":
		ranges = []flagRange{{"modules", f.modules, 1, 1 << 20}, {"gates", f.gates, 1, 1 << 20},
			{"insts", f.insts, 0, 1 << 20}, {"top", f.top, 1, 1 << 20}, {"pis", f.pis, 1, 1 << 20}}
	default:
		return fmt.Errorf("unknown -circuit %q (viterbi, soc, mul, lfsr, randhier)", f.circuit)
	}
	for _, r := range ranges {
		if r.v < r.lo || r.v > r.hi {
			return fmt.Errorf("-%s must be in %d..%d for -circuit %s (got %d)", r.name, r.lo, r.hi, f.circuit, r.v)
		}
	}
	// A decoder has 2^(k-1) trellis states, each ≈ 48 signal bits a metric
	// bit (the add-compare-select datapath) and 13 a survivor stage: within
	// 1 % of what elaboration counts from k = 2 to 11.
	if f.circuit == "viterbi" || f.circuit == "soc" {
		channels := max(f.channels, 1)
		if bits := channels << (k - 1) * (48*w + 13*tb + 16); bits > maxBits {
			return fmt.Errorf("-k %d -w %d -tb %d, %d channel(s): about %d signal bits (2^(k-1) states of 48w + 13tb + 16 each), limit %d",
				k, w, tb, channels, bits, maxBits)
		}
	}
	return nil
}
