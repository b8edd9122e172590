package main

import (
	"strings"
	"testing"
)

// TestValidateSelection walks every value of the three selecting flags: one
// that selects something is accepted, one that selects nothing is an error
// naming what there is, never a run that prints nothing.
func TestValidateSelection(t *testing.T) {
	cases := []struct {
		table, fig int
		ablation   string
		want       string // substring of the error; "" = accepted
	}{
		{0, 0, "", ""},
		{1, 0, "", ""}, {5, 0, "", ""},
		{-1, 0, "", "tables 1..5"}, {6, 0, "", "tables 1..5"},
		{0, 5, "", ""}, {0, 7, "", ""},
		{0, 4, "", "figures 5..7"}, {0, 8, "", "figures 5..7"}, {0, -2, "", "figures 5..7"},
		{0, 0, "pairing", ""}, {0, 0, "recursive", ""}, {0, 0, "flatten", ""},
		{0, 0, "init", ""}, {0, 0, "activity", ""}, {0, 0, "sync", ""},
		{0, 0, "hierarchy", ""}, {0, 0, "clustering", ""}, {0, 0, "scale", ""},
		{0, 0, "Pairing", "unknown -ablation"}, {0, 0, "all", "unknown -ablation"},
		{3, 6, "scale", ""},
	}
	for _, c := range cases {
		err := validateSelection(c.table, c.fig, c.ablation)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("-table %d -fig %d -ablation %q: rejected: %v", c.table, c.fig, c.ablation, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("-table %d -fig %d -ablation %q: error %v, want %q", c.table, c.fig, c.ablation, err, c.want)
		}
	}
	// The error for an unknown study and the flag's help offer every study
	// the dispatch runs.
	err := validateSelection(0, 0, "nope")
	for _, a := range ablations {
		if !strings.Contains(err.Error(), a.name) {
			t.Errorf("unknown -ablation error %q does not offer %q", err, a.name)
		}
	}
	if len(ablations) != 9 {
		t.Errorf("%d studies listed, the table above accepts 9: add the new name to it", len(ablations))
	}
}

// TestValidateFlags holds every rejection of a run length or pool size to
// its message, and the values a run accepts to none.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name         string
		presim, full uint64
		workers      int
		jsonOut      bool
		trace        string
		want         string // substring of the error; "" = accepted
	}{
		{"defaults", 10000, 100000, 0, false, "", ""},
		{"smallest, sequential", 1, 1, 1, false, "", ""},
		{"json with a trace file", 2000, 5000, 0, true, "grid.trace.json", ""},
		{"trace to stdout without json", 2000, 5000, 0, false, "-", ""},
		{"no presim", 0, 5000, 0, false, "", "-presim must be >= 1"},
		{"no full run", 2000, 0, 0, false, "", "-full must be >= 1"},
		{"negative workers", 2000, 5000, -1, false, "", "-workers must be >= 0 (got -1)"},
		{"json and trace both on stdout", 2000, 5000, 0, true, "-", "-trace - with -json"},
	} {
		err := validateFlags(tc.presim, tc.full, tc.workers, tc.jsonOut, tc.trace)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
