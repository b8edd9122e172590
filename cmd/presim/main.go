// Command presim runs the pre-simulation search for the best (k, b)
// combination (paper §3.4): brute force over the whole grid or the
// heuristic of figure 3.
//
// Examples:
//
//	presim -in design.v -top chip -ks 2,3,4 -bs 2.5,5,7.5,10,12.5,15
//	presim -in design.v -top chip -heuristic
//	presim -in design.v -top chip -json -trace presim.trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/elab"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/presim"
	"repro/internal/stats"
	"repro/internal/verilog"
)

func main() {
	var (
		in        = flag.String("in", "", "input Verilog file (required)")
		top       = flag.String("top", "", "top module name (required)")
		ksFlag    = flag.String("ks", "2,3,4", "candidate machine counts")
		bsFlag    = flag.String("bs", "2.5,5,7.5,10,12.5,15", "candidate balance factors (percent)")
		cycles    = flag.Uint64("cycles", 10000, "pre-simulation vectors")
		seed      = flag.Int64("seed", 1, "vector seed")
		heuristic = flag.Bool("heuristic", false, "use the heuristic search instead of brute force")
		workers   = flag.Int("workers", 0, "campaign pool size; the pool runs over grid cells, or over k-rows with -heuristic (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON results on stdout instead of text tables")
		trace     = flag.String("trace", "", "write a Chrome trace of the campaign to this file (\"-\" = stdout, not with -json)")
	)
	flag.Parse()
	if *in == "" || *top == "" {
		flag.Usage()
		os.Exit(2)
	}
	ks, bs, err := validateFlags(*ksFlag, *bsFlag, *cycles, *workers, *jsonOut, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "presim:", err)
		os.Exit(2)
	}

	src, err := os.ReadFile(*in)
	fatal(err)
	d, err := verilog.Parse(string(src))
	fatal(err)
	ed, err := elab.Elaborate(d, *top)
	fatal(err)

	var o *obs.Observer
	if *trace != "" {
		o = obs.New(obs.Options{})
	}
	cfg := &presim.Config{
		Design:  ed,
		Ks:      ks,
		Bs:      bs,
		Cycles:  *cycles,
		Seed:    *seed,
		Workers: *workers,
		Obs:     o,
	}

	if *heuristic {
		best, visited, err := presim.Heuristic(cfg)
		fatal(err)
		fatal(o.Dump(*trace, ""))
		if *jsonOut {
			writeJSON(result{
				Mode: "heuristic", Ks: cfg.Ks, Bs: cfg.Bs,
				Points: visited, Best: best,
				Visited: len(visited), Grid: len(cfg.Ks) * len(cfg.Bs),
			})
			return
		}
		printPoints(visited)
		fmt.Printf("\nheuristic visited %d of %d combinations\n",
			len(visited), len(cfg.Ks)*len(cfg.Bs))
		fmt.Printf("best: k=%d b=%g speedup=%.2f cut=%d\n", best.K, best.B, best.Speedup, best.Cut)
		return
	}

	points, best, err := presim.BruteForce(cfg)
	fatal(err)
	fatal(o.Dump(*trace, ""))
	if *jsonOut {
		writeJSON(result{
			Mode: "brute-force", Ks: cfg.Ks, Bs: cfg.Bs,
			Points: points, Best: best,
			Visited: len(points), Grid: len(cfg.Ks) * len(cfg.Bs),
		})
		return
	}
	printPoints(points)
	fmt.Println("\nbest partitions per machine count:")
	tbl := stats.NewTable("k", "b", "cut-size", "Simulation time", "Speedup")
	perK := presim.BestPerK(points)
	for _, k := range cfg.Ks {
		if p, ok := perK[k]; ok {
			tbl.AddRow(p.K, p.B, p.Cut, p.SimTime, p.Speedup)
		}
	}
	fmt.Print(tbl.String())
	fmt.Printf("\noverall best: k=%d b=%g speedup=%.2f\n", best.K, best.B, best.Speedup)
}

// result is the -json document: the campaign's points, each with its
// partition and model wall times, and the winner, correlatable with a
// -trace of the same run.
type result struct {
	Mode    string          `json:"mode"`
	Ks      []int           `json:"ks"`
	Bs      []float64       `json:"bs"`
	Points  []*presim.Point `json:"points"`
	Best    *presim.Point   `json:"best"`
	Visited int             `json:"visited"`
	Grid    int             `json:"grid"`
}

func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	fatal(enc.Encode(v))
}

func printPoints(points []*presim.Point) {
	tbl := stats.NewTable("k", "b", "cut-size", "Sim time", "Speedup", "Bound", "Messages", "Rollbacks")
	for _, p := range points {
		tbl.AddRow(p.K, p.B, p.Cut, p.SimTime, p.Speedup, p.BoundSpeedup, p.Messages, p.Rollbacks)
	}
	fmt.Print(tbl.String())
}

// validateFlags rejects, before any work is done, the flag values no
// campaign accepts, and returns the two candidate lists parsed. With -json
// stdout is the one result document, so a trace cannot go there too.
func validateFlags(ksFlag, bsFlag string, cycles uint64, workers int, jsonOut bool, trace string) (ks []int, bs []float64, err error) {
	if ks, err = parseInts(ksFlag); err != nil {
		return nil, nil, fmt.Errorf("-ks: %v", err)
	}
	for _, k := range ks {
		if k < 2 {
			return nil, nil, fmt.Errorf("-ks: machine counts must be >= 2 (got %d)", k)
		}
	}
	if bs, err = parseFloats(bsFlag); err != nil {
		return nil, nil, fmt.Errorf("-bs: %v", err)
	}
	for _, b := range bs {
		if err := partition.CheckB(b); err != nil {
			return nil, nil, fmt.Errorf("-bs: balance factors %w", err)
		}
	}
	if cycles == 0 {
		return nil, nil, fmt.Errorf("-cycles must be >= 1")
	}
	if workers < 0 {
		return nil, nil, fmt.Errorf("-workers must be >= 0 (got %d)", workers)
	}
	if jsonOut && trace == "-" {
		return nil, nil, fmt.Errorf("-trace - with -json would write two JSON documents to stdout: give -trace a file")
	}
	return ks, bs, nil
}

// parseInts parses a comma-separated list with at least one entry.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("entry %q of %q is not an integer", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("entry %q of %q is not a number", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "presim:", err)
		os.Exit(1)
	}
}
