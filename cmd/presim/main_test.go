package main

import (
	"slices"
	"strings"
	"testing"
)

// TestValidateFlags holds every rejection to its message and every flag
// combination a campaign accepts to none, with the lists it parsed. wantErr
// "" means accepted.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ks, bs  string
		cycles  uint64
		workers int
		jsonOut bool
		trace   string
		wantKs  []int
		wantBs  []float64
		wantErr string
	}{
		{name: "defaults", ks: "2,3,4", bs: "2.5,5,7.5,10,12.5,15", cycles: 10000,
			wantKs: []int{2, 3, 4}, wantBs: []float64{2.5, 5, 7.5, 10, 12.5, 15}},
		{name: "one point, spaces, sequential", ks: " 7 ", bs: "0.001 ", cycles: 1, workers: 1,
			wantKs: []int{7}, wantBs: []float64{0.001}},
		{name: "more workers than points", ks: "2", bs: "10", cycles: 5, workers: 64,
			wantKs: []int{2}, wantBs: []float64{10}},
		{name: "json with a trace file", ks: "2", bs: "10", cycles: 5, jsonOut: true, trace: "presim.trace.json",
			wantKs: []int{2}, wantBs: []float64{10}},
		{name: "trace to stdout without json", ks: "2", bs: "10", cycles: 5, trace: "-",
			wantKs: []int{2}, wantBs: []float64{10}},

		{name: "unparsable k", ks: "2,x", bs: "10", cycles: 1, wantErr: `-ks: entry "x" of "2,x" is not an integer`},
		{name: "fractional k", ks: "2.5", bs: "10", cycles: 1, wantErr: "-ks: entry"},
		{name: "k=1", ks: "1,2", bs: "10", cycles: 1, wantErr: "-ks: machine counts must be >= 2 (got 1)"},
		{name: "negative k", ks: "2,-4", bs: "10", cycles: 1, wantErr: "-ks: machine counts must be >= 2 (got -4)"},
		{name: "empty ks", ks: "", bs: "10", cycles: 1, wantErr: "-ks: entry"},
		{name: "trailing comma in ks", ks: "2,", bs: "10", cycles: 1, wantErr: "-ks: entry"},
		{name: "unparsable b", ks: "2", bs: "5,ten", cycles: 1, wantErr: `-bs: entry "ten" of "5,ten" is not a number`},
		{name: "b=0", ks: "2", bs: "5,0", cycles: 1, wantErr: "-bs: balance factors must be > 0 percent (got 0)"},
		{name: "negative b", ks: "2", bs: "-2.5", cycles: 1, wantErr: "-bs: balance factors must be > 0"},
		{name: "b not a number", ks: "2", bs: "nan", cycles: 1, wantErr: "-bs: balance factors must be > 0"},
		{name: "b infinite", ks: "2", bs: "10,+Inf", cycles: 1, wantErr: "-bs: balance factors must be finite (got +Inf)"},
		{name: "empty bs", ks: "2", bs: "", cycles: 1, wantErr: "-bs: entry"},
		{name: "no cycles", ks: "2", bs: "10", cycles: 0, wantErr: "-cycles must be >= 1"},
		{name: "negative workers", ks: "2", bs: "10", cycles: 1, workers: -3, wantErr: "-workers must be >= 0 (got -3)"},
		{name: "json and trace both on stdout", ks: "2", bs: "10", cycles: 1, jsonOut: true, trace: "-", wantErr: "-trace - with -json"},
	} {
		ks, bs, err := validateFlags(tc.ks, tc.bs, tc.cycles, tc.workers, tc.jsonOut, tc.trace)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr == "" && (!slices.Equal(ks, tc.wantKs) || !slices.Equal(bs, tc.wantBs)):
			t.Errorf("%s: parsed ks %v bs %v, want %v and %v", tc.name, ks, bs, tc.wantKs, tc.wantBs)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error containing %q", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.wantErr)
		}
	}
}
