package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (end-to-end metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a candidate against a baseline for one metric. worse is
// the share of the baseline median by which the candidate's median is
// worse (negative = better). The row is unresolved when the two ranges
// share more than the bound — the run-to-run spread is then wider than
// what the bound could tell apart — and regressed when, with the ranges
// told apart, the median worsened by more than the bound.
func judge(m *metric, base, cand value) (worse float64, verdict string) {
	if base.Value == cand.Value {
		return 0, verdictOK
	}
	scale := math.Abs(base.Value)
	worse = (cand.Value - base.Value) / scale
	if m.higher {
		worse = -worse
	}
	overlap := math.Min(base.Max, cand.Max) - math.Max(base.Min, cand.Min)
	switch {
	case overlap/scale > m.bound:
		return worse, verdictUnresolved
	case worse > m.bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

func readDocument(path string) (*document, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// compareFiles prints one row per (end-to-end metric, workload) present
// in both files and returns the exit status: 1 on any regressed row.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := readDocument(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -compare: %v\n", err)
		return 2
	}
	cand, err := readDocument(candPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -compare: %v\n", err)
		return 2
	}
	return compareDocuments(w, base, cand)
}

func compareDocuments(w io.Writer, base, cand *document) int {
	fmt.Fprintf(w, "baseline:  commit %s seed %d scale %s, %s, GOMAXPROCS %d\n",
		base.Env.Commit, base.Env.Seed, base.Env.Scale, base.Env.CPU, base.Env.GOMAXPROCS)
	fmt.Fprintf(w, "candidate: commit %s seed %d scale %s, %s, GOMAXPROCS %d\n",
		cand.Env.Commit, cand.Env.Seed, cand.Env.Scale, cand.Env.CPU, cand.Env.GOMAXPROCS)
	fmt.Fprintf(w, "%-20s %-24s %-36s %-36s %9s %6s  %s\n",
		"workload", "metric", "baseline median [min, max]", "candidate median [min, max]", "worse by", "bound", "verdict")
	candidates := map[string]*result{}
	for _, r := range cand.Workloads {
		candidates[r.Name] = r
	}
	status, rows := 0, 0
	for _, b := range base.Workloads {
		c := candidates[b.Name]
		if c == nil {
			continue
		}
		for i := range metrics {
			m := &metrics[i]
			bv, inBase := b.Metrics[m.name]
			cv, inCand := c.Metrics[m.name]
			if m.layer || !inBase || !inCand {
				continue
			}
			worse, verdict := judge(m, bv, cv)
			if verdict == verdictRegressed {
				status = 1
			}
			rows++
			show := func(v value) string { return fmt.Sprintf("%.6g [%.6g, %.6g]", v.Value, v.Min, v.Max) }
			// "worse by" is a share of the baseline median shown to its left.
			fmt.Fprintf(w, "%-20s %-24s %-36s %-36s %+8.1f%% %5.0f%%  %s\n",
				b.Name, m.name, show(bv), show(cv), worse*100, m.bound*100, verdict)
		}
		if b.Failed != c.Failed {
			fmt.Fprintf(w, "%-20s failed checks: baseline %d of %d, candidate %d of %d\n",
				b.Name, b.Failed, b.Attempted, c.Failed, c.Attempted)
			if c.Failed > b.Failed {
				status = 1
			}
		}
	}
	if rows == 0 {
		fmt.Fprintln(w, "no end-to-end metric on a workload both files hold")
		return 2
	}
	return status
}
