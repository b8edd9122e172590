// Command benchpairs runs the alternating-pairs protocol that decides
// whether a change moved the pipeline benchmark (BENCHMARK.json): for
// each workload and each seed 1..N it runs the benchmark's driver command
// once in a checkout of the parent commit and once in the change's,
// alternating which side goes first, and prints one row per (end-to-end
// metric, workload) with both medians, both quartile spreads, how many
// pairs the change won, and a verdict:
//
//	identical   parent and change read the same value on every seed
//	improved    the change wins at least nine tenths of the pairs and the
//	            medians differ by more than the parent's quartile spread
//	ok          both spreads inside the metric's bound and the change's
//	            median not worse than the parent's by more than the bound
//	regressed   spreads inside the bound, median worse by more than it
//	unresolved  a spread wider than the bound, and not every run of the
//	            change better than every run of the parent
//
// `make bench-pairs PARENT=<rev>` builds the parent checkout and calls it;
// the output is what the BENCH_<n>.txt evidence files hold. Fewer than one
// pair, or a workload or per-layer metric BENCHMARK.json does not name,
// exits with status 2 and one line on stderr before any run.
//
//	benchpairs -parent /tmp/parent -change . -pairs 10 \
//	    -workloads soc_tw_aligned,viterbi_tw_rollback -layers timewarp.run_s,sim.run_s
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the protocol needs.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []named  `json:"workloads"`
	EndToEnd   []metric `json:"end_to_end"`
	PerLayer   []named  `json:"per_layer"`
}

// named is an entry of a BENCHMARK.json list of which only the name is read.
type named struct {
	Name string `json:"name"`
}

// has reports whether list holds an entry called name.
func has(list []named, name string) bool {
	return slices.ContainsFunc(list, func(e named) bool { return e.Name == name })
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// outcome is the driver's contract line: the last line of its stdout.
type outcome struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// usageError is a rejection made before any run; it exits with status 2.
type usageError struct{ error }

func main() {
	parent := flag.String("parent", "", "checkout of the parent commit (required)")
	change := flag.String("change", ".", "checkout of the change")
	pairs := flag.Int("pairs", 10, "parent/change pairs per workload, seeds 1..pairs")
	workloads := flag.String("workloads", "", "comma-separated workload[:pairs] list (default: every workload of BENCHMARK.json)")
	layers := flag.String("layers", "", "comma-separated per-layer metrics: one extra traced pair per workload at seed 1 prints them side by side")
	flag.Parse()
	if err := run(os.Stdout, *parent, *change, *pairs, *workloads, *layers); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(w io.Writer, parent, change string, pairs int, workloads, layers string) error {
	if parent == "" {
		return usageError{errors.New("-parent is required")}
	}
	buf, err := os.ReadFile(filepath.Join(change, "BENCHMARK.json"))
	if err != nil {
		return usageError{err}
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return usageError{fmt.Errorf("BENCHMARK.json: %w", err)}
	}
	if pairs < 1 {
		return usageError{fmt.Errorf("-pairs %d: want at least 1", pairs)}
	}
	if workloads == "" {
		var names []string
		for _, wl := range sp.Workloads {
			names = append(names, wl.Name)
		}
		workloads = strings.Join(names, ",")
	}
	type job struct {
		name  string
		pairs int
	}
	var jobs []job
	for _, item := range strings.Split(workloads, ",") {
		j := job{item, pairs}
		if name, n, ok := strings.Cut(item, ":"); ok {
			j.name = name
			if j.pairs, err = strconv.Atoi(n); err != nil || j.pairs < 1 {
				return usageError{fmt.Errorf("-workloads: %q: the pair count must be an integer of at least 1", item)}
			}
		}
		if !has(sp.Workloads, j.name) {
			return usageError{fmt.Errorf("-workloads: %q is not a workload of BENCHMARK.json", j.name)}
		}
		jobs = append(jobs, j)
	}
	var layerNames []string
	if layers != "" {
		layerNames = strings.Split(layers, ",")
	}
	for _, l := range layerNames {
		if !has(sp.PerLayer, l) {
			return usageError{fmt.Errorf("-layers: %q is not a per_layer metric of BENCHMARK.json", l)}
		}
	}
	sides := [2]string{parent, change}
	label := [2]string{"parent", "change"}

	fmt.Fprintf(w, "%-20s %-18s %5s %12s %12s %8s %8s %8s %5s  %s\n",
		"workload", "metric", "pairs", "parent med", "change med", "worse%", "parIQR%", "chgIQR%", "wins", "verdict")
	var raw, traced bytes.Buffer
	for _, j := range jobs {
		name, n := j.name, j.pairs
		var runs [2][]outcome
		for seed := 1; seed <= n; seed++ {
			first := seed % 2 // odd seeds run the change first
			for _, side := range [2]int{first, 1 - first} {
				o, err := drive(sides[side], sp, name, seed, false)
				if err != nil {
					return fmt.Errorf("%s %s seed %d: %w", label[side], name, seed, err)
				}
				runs[side] = append(runs[side], o)
				fmt.Fprintf(&raw, "%-20s seed %2d %s", name, seed, label[side])
				for _, m := range sp.EndToEnd {
					fmt.Fprintf(&raw, " %s=%.6g", m.Name, o.Metrics[m.Name].Value)
				}
				fmt.Fprintln(&raw)
			}
		}
		for _, m := range sp.EndToEnd {
			r := judge(m, column(runs[0], m.Name), column(runs[1], m.Name))
			fmt.Fprintf(w, "%-20s %-18s %5d %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5d  %s\n",
				name, m.Name, n, r.parentMed, r.changeMed, r.worse*100, r.parentIQR*100, r.changeIQR*100, r.wins, r.verdict)
		}
		var attempted, failed [2]int
		for side := range runs {
			for _, o := range runs[side] {
				attempted[side] += o.Attempted
				failed[side] += o.Failed
			}
		}
		fmt.Fprintf(w, "%-20s failed checks: parent %d of %d, change %d of %d\n",
			name, failed[0], attempted[0], failed[1], attempted[1])

		if layerNames != nil {
			var o [2]outcome
			for side := range sides {
				if o[side], err = drive(sides[side], sp, name, 1, true); err != nil {
					return fmt.Errorf("%s %s traced: %w", label[side], name, err)
				}
			}
			for _, l := range layerNames {
				fmt.Fprintf(&traced, "%-20s %-34s %14.6g %14.6g\n", name, l, o[0].Metrics[l].Value, o[1].Metrics[l].Value)
			}
		}
	}
	if traced.Len() > 0 {
		fmt.Fprintf(w, "\ntraced pair, seed 1 (--trace 1; per-layer medians, 0 = layer not run by the workload)\n%-20s %-34s %14s %14s\n%s",
			"workload", "metric", "parent", "change", traced.String())
	}
	fmt.Fprintf(w, "\nevery run, in the order made\n%s", raw.String())
	return nil
}

// drive runs the benchmark's driver command once in dir.
func drive(dir string, sp spec, workload string, seed int, trace bool) (outcome, error) {
	t := "0"
	if trace {
		t = "1"
	}
	args := append(append([]string(nil), sp.Command[1:]...),
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(sp.RunSeconds), "--trace", t)
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return outcome{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var o outcome
	if err := json.Unmarshal(lines[len(lines)-1], &o); err != nil {
		return outcome{}, fmt.Errorf("last stdout line is not the contract JSON: %w", err)
	}
	return o, nil
}

func column(runs []outcome, name string) []float64 {
	vals := make([]float64, len(runs))
	for i, o := range runs {
		vals[i] = o.Metrics[name].Value
	}
	return vals
}

type row struct {
	parentMed, changeMed float64
	worse                float64 // share of the parent median, in the metric's bad direction
	parentIQR, changeIQR float64 // quartile distance over the own median
	wins                 int     // pairs in which the change read better
	verdict              string
}

// judge applies the verdict rules of the package comment to the paired
// samples of one metric on one workload (parent[i] and change[i] share a
// seed).
func judge(m metric, parent, change []float64) row {
	sign := 1.0 // multiply by it and "greater" means "worse"
	if m.Better == "higher" {
		sign = -1
	}
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(change)
	r := row{parentMed: pmed, changeMed: cmed}
	if pmed != 0 {
		r.worse = sign * (cmed - pmed) / math.Abs(pmed)
		r.parentIQR = (pq3 - pq1) / math.Abs(pmed)
	}
	if cmed != 0 {
		r.changeIQR = (cq3 - cq1) / math.Abs(cmed)
	}
	identical, dominates := true, true
	for i := range parent {
		if sign*change[i] < sign*parent[i] {
			r.wins++
		}
		identical = identical && change[i] == parent[i]
		for _, p := range parent {
			dominates = dominates && sign*change[i] < sign*p
		}
	}
	switch {
	case identical:
		r.verdict = "identical"
	case 10*r.wins >= 9*len(parent) && sign*(pmed-cmed) > pq3-pq1:
		r.verdict = "improved"
	case (r.parentIQR > m.Bound || r.changeIQR > m.Bound) && !dominates:
		r.verdict = "unresolved"
	case r.worse > m.Bound:
		r.verdict = "regressed"
	default:
		r.verdict = "ok"
	}
	return r
}

// quartiles returns the lower quartile, median and upper quartile of
// vals by linear interpolation between order statistics.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
