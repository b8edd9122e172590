package main

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/timewarp"
)

// TestValidateFlags holds every rejection to its message and every flag
// combination the partitioners accept to none. wantErr "" means accepted.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		algo     string
		strategy string
		k        int
		b        float64
		opt      bool
		set      []string
		wantErr  string
	}{
		{name: "defaults", algo: "dd", strategy: "gain", k: 2, b: 10},
		{name: "dd with every strategy: random", algo: "dd", strategy: "random", k: 4, b: 5, set: []string{"strategy"}},
		{name: "dd with every strategy: exhaustive", algo: "dd", strategy: "exhaustive", k: 4, b: 5, set: []string{"strategy"}},
		{name: "dd with every strategy: cut", algo: "dd", strategy: "cut", k: 4, b: 5, set: []string{"strategy"}},
		{name: "ml", algo: "ml", strategy: "gain", k: 8, b: 0.5, set: []string{"algo", "k", "b"}},
		{name: "nlevel optimized", algo: "nlevel", strategy: "gain", k: 3, b: 10, opt: true, set: []string{"algo", "opt"}},

		{name: "unknown algo", algo: "hmetis", strategy: "gain", k: 2, b: 10, wantErr: `unknown -algo "hmetis"`},
		{name: "empty algo", algo: "", strategy: "gain", k: 2, b: 10, wantErr: "unknown -algo"},
		{name: "unknown strategy", algo: "dd", strategy: "greedy", k: 2, b: 10, set: []string{"strategy"}, wantErr: `unknown -strategy "greedy"`},
		{name: "opt with dd", algo: "dd", strategy: "gain", k: 2, b: 10, opt: true, wantErr: "-opt only applies to -algo ml or nlevel"},
		{name: "strategy with ml", algo: "ml", strategy: "cut", k: 2, b: 10, set: []string{"strategy"}, wantErr: "-strategy only applies to -algo dd"},
		{name: "strategy with nlevel, even the default typed out", algo: "nlevel", strategy: "gain", k: 2, b: 10, set: []string{"strategy"}, wantErr: "-strategy only applies to -algo dd"},
		{name: "k=1", algo: "dd", strategy: "gain", k: 1, b: 10, wantErr: "-k must be >= 2"},
		{name: "k=0 with ml", algo: "ml", strategy: "gain", k: 0, b: 10, wantErr: "-k must be >= 2"},
		{name: "negative k", algo: "nlevel", strategy: "gain", k: -3, b: 10, wantErr: "-k must be >= 2"},
		{name: "b=0", algo: "dd", strategy: "gain", k: 2, b: 0, wantErr: "-b must be > 0"},
		{name: "negative b", algo: "ml", strategy: "gain", k: 2, b: -5, wantErr: "-b must be > 0"},
		{name: "NaN b", algo: "dd", strategy: "gain", k: 2, b: math.NaN(), wantErr: "-b must be > 0"},
		{name: "NaN b with ml", algo: "ml", strategy: "gain", k: 2, b: math.NaN(), wantErr: "-b must be > 0"},
		{name: "infinite b", algo: "nlevel", strategy: "gain", k: 2, b: math.Inf(1), wantErr: "-b must be finite"},
		{name: "negative infinite b", algo: "dd", strategy: "gain", k: 2, b: math.Inf(-1), wantErr: "-b must be > 0"},
	} {
		set := map[string]bool{}
		for _, f := range tc.set {
			set[f] = true
		}
		err := validateFlags(tc.algo, tc.strategy, tc.k, tc.b, tc.opt, set)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error containing %q", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestReplicationLine prints, for a partition of the default decoder, the
// copies and the fused records timewarp.Tables counts, in cluster order.
func TestReplicationLine(t *testing.T) {
	ed, err := gen.Viterbi(gen.ViterbiConfig{K: 3, W: 4, TB: 6}).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Multiway(ed, partition.Options{K: 2, B: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	copies, records, err := timewarp.Tables(ed.Netlist, res.GateParts, 2)
	if err != nil {
		t.Fatal(err)
	}
	line := replicationLine(ed.Netlist, res.GateParts, copies, records)
	want := fmt.Sprintf("copies %d,%d (", copies[0], copies[1])
	if !strings.HasPrefix(line, want) || !strings.Contains(line, fmt.Sprintf("; records %d,%d; cut ", records[0], records[1])) {
		t.Errorf("line %q, want copies %v and records %v", line, copies, records)
	}
	if records[0] == 0 || records[0]+records[1] >= len(ed.Netlist.Gates) {
		t.Errorf("records %v of %d gates: want some, and fewer than the gates", records, len(ed.Netlist.Gates))
	}
}
