// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	experiments -all                 # every table and figure
//	experiments -table 1             # one table (1..5)
//	experiments -fig 6               # one figure (5..7)
//	experiments -heuristic           # §3.4 heuristic pre-simulation study
//	experiments -ablation pairing    # pairing | recursive | flatten | init |
//	                                 # activity | sync | hierarchy | clustering | scale
//	experiments -all -presim 2000    # faster, lower-fidelity run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/stats"
)

// study is one -ablation: its flag value, its section title, whether it
// reads the pre-simulation grid, and its body.
type study struct {
	name, title string
	grid        bool
	run         func(ctx *experiments.Context, points []*experiments.GridPoint) (string, error)
}

// ablations is every -ablation study in the order -all prints them: the one
// list the dispatch, the flag's help text and its validation read.
var ablations = []study{
	{"pairing", "Ablation: pairing strategies (paper §3.1.1)", false,
		func(c *experiments.Context, _ []*experiments.GridPoint) (string, error) {
			return render(c.AblationPairing(10))
		}},
	{"recursive", "Ablation: direct pairwise vs recursive bisection (paper §3.1.1)", false,
		func(c *experiments.Context, _ []*experiments.GridPoint) (string, error) {
			return render(c.AblationRecursive(10))
		}},
	{"flatten", "Ablation: super-gate flattening (paper §3.2)", false,
		func(c *experiments.Context, _ []*experiments.GridPoint) (string, error) {
			return render(c.AblationFlattening())
		}},
	{"init", "Ablation: initial partition (cone vs random)", false,
		func(c *experiments.Context, _ []*experiments.GridPoint) (string, error) {
			return render(c.AblationInitial(2, 10))
		}},
	{"activity", "Extension: activity-weighted load metric (paper future work)", false,
		func(c *experiments.Context, _ []*experiments.GridPoint) (string, error) {
			s, err := c.ActivityWeightStudy(3, 10)
			return s + "\n", err
		}},
	{"sync", "Ablation: optimistic (Time Warp) vs synchronous (barrier) execution", true,
		func(c *experiments.Context, points []*experiments.GridPoint) (string, error) {
			return render(c.SyncVsOptimistic(points))
		}},
	{"hierarchy", "Extension: hierarchy destruction on a 2-channel SoC (paper §4.3 discussion)", false,
		func(c *experiments.Context, _ []*experiments.GridPoint) (string, error) {
			return render(experiments.HierarchyStudy(min(c.PresimCycles, 2000), c.Seed))
		}},
	{"clustering", "Extension: bottom-up clustering vs design hierarchy (paper §2 related work)", false,
		func(c *experiments.Context, _ []*experiments.GridPoint) (string, error) {
			return render(c.ClusteringStudy(3, 10))
		}},
	{"scale", "Extension: scaling the design-driven partitioner", false,
		func(c *experiments.Context, _ []*experiments.GridPoint) (string, error) {
			return render(experiments.ScaleStudy(nil, c.Seed))
		}},
}

func render(t *stats.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.String(), nil
}

func ablationNames() string {
	names := make([]string, len(ablations))
	for i, a := range ablations {
		names[i] = a.name
	}
	return strings.Join(names, " | ")
}

// validateSelection rejects a -table, -fig or -ablation value that selects
// nothing; 0 and "" are the flags left unset.
func validateSelection(table, fig int, ablation string) error {
	if table != 0 && (table < 1 || table > 5) {
		return fmt.Errorf("-table %d: there are tables 1..5", table)
	}
	if fig != 0 && (fig < 5 || fig > 7) {
		return fmt.Errorf("-fig %d: there are figures 5..7", fig)
	}
	if ablation == "" {
		return nil
	}
	for _, a := range ablations {
		if a.name == ablation {
			return nil
		}
	}
	return fmt.Errorf("unknown -ablation %q (want %s)", ablation, ablationNames())
}

// validateFlags rejects the run lengths and pool size no run accepts — a
// pre-simulation or full run of no vectors models nothing — and a trace
// sent to stdout beside the -json document.
func validateFlags(presim, full uint64, workers int, jsonOut bool, trace string) error {
	if presim == 0 {
		return fmt.Errorf("-presim must be >= 1")
	}
	if full == 0 {
		return fmt.Errorf("-full must be >= 1")
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d)", workers)
	}
	if jsonOut && trace == "-" {
		return fmt.Errorf("-trace - with -json would write two JSON documents to stdout: give -trace a file")
	}
	return nil
}

func main() {
	var (
		all       = flag.Bool("all", false, "run every table and figure")
		table     = flag.Int("table", 0, "regenerate one table (1..5)")
		fig       = flag.Int("fig", 0, "regenerate one figure (5..7)")
		heuristic = flag.Bool("heuristic", false, "run the heuristic pre-simulation study")
		ablation  = flag.String("ablation", "", "run one study: "+ablationNames())
		dump      = flag.String("dump", "", "also write the figure series as TSV files into this directory")
		presimC   = flag.Uint64("presim", 10000, "pre-simulation vectors (paper: 10,000)")
		fullC     = flag.Uint64("full", 100000, "full-run vectors (paper: 1,000,000)")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "pre-simulation grid pool size; the pool runs over k-rows (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		jsonOut   = flag.Bool("json", false, "run the pre-simulation grid and emit machine-readable JSON on stdout (suppresses tables)")
		trace     = flag.String("trace", "", "write a Chrome trace of the partitioner/grid work to this file (\"-\" = stdout, not with -json)")
	)
	flag.Parse()
	err := validateSelection(*table, *fig, *ablation)
	if err == nil {
		err = validateFlags(*presimC, *fullC, *workers, *jsonOut, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	ctx, err := experiments.NewDefaultContext()
	fatal(err)
	ctx.PresimCycles = *presimC
	ctx.FullCycles = *fullC
	ctx.Seed = *seed
	ctx.Workers = *workers
	var o *obs.Observer
	if *trace != "" {
		o = obs.New(obs.Options{})
		ctx.Obs = o
	}
	if !*jsonOut {
		st := ctx.ED.Netlist.Stats()
		fmt.Printf("workload: generated Viterbi decoder — %d gates (%d DFF), %d module instances\n",
			st.Gates, st.DFFs, len(ctx.ED.Instances)-1)
		fmt.Printf("grid: k=%v b=%v; presim %d vectors, full %d vectors\n\n",
			ctx.Ks, ctx.Bs, ctx.PresimCycles, ctx.FullCycles)
	}

	needGrid := *all || *table >= 3 || *fig >= 5 || *jsonOut
	for _, a := range ablations {
		needGrid = needGrid || a.grid && a.name == *ablation
	}
	var points []*experiments.GridPoint
	if needGrid {
		points, err = ctx.PresimGrid()
		fatal(err)
		if !*jsonOut {
			fmt.Println() // the tables' layout keeps a blank line after the grid
		}
	}

	if *jsonOut {
		// Machine-readable mode: the grid is the result; tables are for eyes.
		fatal(o.Dump(*trace, ""))
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(struct {
			Ks     []int                    `json:"ks"`
			Bs     []float64                `json:"bs"`
			Presim uint64                   `json:"presim_cycles"`
			Seed   int64                    `json:"seed"`
			Points []*experiments.GridPoint `json:"points"`
		}{ctx.Ks, ctx.Bs, ctx.PresimCycles, ctx.Seed, points}))
		return
	}

	run := func(want int, sel *int) bool { return *all || *sel == want }

	if *dump != "" && points != nil {
		fatal(os.MkdirAll(*dump, 0o755))
		fatal(dumpTSV(*dump, points))
		fmt.Printf("wrote TSV series to %s\n", *dump)
	}

	if run(1, table) {
		t, err := ctx.Table1()
		fatal(err)
		section("Table 1: cut-size with design-driven partitioning algorithm")
		fmt.Print(t.String())
	}
	if run(2, table) {
		t, err := ctx.Table2()
		fatal(err)
		section("Table 2: cut-size with multilevel (hMetis-substitute) partitioning, flattened netlist")
		fmt.Print(t.String())
	}
	if run(3, table) {
		section("Table 3: pre-simulation time with design-driven partitioning algorithm")
		fmt.Print(experiments.Table3(points).String())
	}
	if run(4, table) {
		section("Table 4: best partition produced by design-driven partitioning algorithm")
		fmt.Print(experiments.Table4(points, ctx.Ks).String())
	}
	if run(5, table) || run(5, fig) {
		section(fmt.Sprintf("Table 5 / Figure 5: full simulation (%d vectors)", ctx.FullCycles))
		t, series, err := ctx.FullRuns(points)
		fatal(err)
		fmt.Print(t.String())
		fmt.Println("\nFigure 5 series (simulation time vs machines, 1 machine = sequential):")
		for i, v := range series {
			fmt.Printf("  machines=%d  time=%.0f\n", i+1, v)
		}
	}
	if run(6, fig) {
		section("Figure 6: message number during the pre-simulation")
		fmt.Print(experiments.Fig6(points, ctx.Ks, ctx.Bs).String())
	}
	if run(7, fig) {
		section("Figure 7: rollback number during the pre-simulation")
		fmt.Print(experiments.Fig7(points, ctx.Ks, ctx.Bs).String())
	}
	if *all || *heuristic {
		section("Heuristic pre-simulation (paper §3.4, fig. 3)")
		s, err := ctx.HeuristicStudy()
		fatal(err)
		fmt.Println(s)
	}
	for _, a := range ablations {
		if *all || *ablation == a.name {
			section(a.title)
			out, err := a.run(ctx, points)
			fatal(err)
			fmt.Print(out)
		}
	}

	fatal(o.Dump(*trace, ""))
}

// dumpTSV writes one row per grid point: plot-ready data for the paper's
// Table 3 and Figures 6/7 (k, b, cut, time, speedup, messages, rollbacks).
func dumpTSV(dir string, points []*experiments.GridPoint) error {
	f, err := os.Create(dir + "/presim_grid.tsv")
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "k\tb\tcut\tsim_time\tspeedup\tcrit_path\tbound_speedup\tmessages\trollbacks"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(f, "%d\t%g\t%d\t%.0f\t%.4f\t%.0f\t%.4f\t%d\t%d\n",
			p.K, p.B, p.Cut, p.SimTime, p.Speedup, p.CritPath, p.BoundSpeedup, p.Messages, p.Rollbacks); err != nil {
			return err
		}
	}
	return nil
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
