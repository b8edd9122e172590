package main

import "testing"

func TestJudgeVerdicts(t *testing.T) {
	speedup := metric{Name: "speedup_vs_seq", Better: "higher", Bound: 0.25}
	setup := metric{Name: "setup_s", Better: "lower", Bound: 0.25}
	ten := func(vals ...float64) []float64 { // pads to ten pairs with the last value
		for len(vals) < 10 {
			vals = append(vals, vals[len(vals)-1])
		}
		return vals
	}
	cases := []struct {
		name           string
		m              metric
		parent, change []float64
		wins           int
		verdict        string
	}{
		{"same value on every seed", speedup, ten(1.88, 1.94, 2.05), ten(1.88, 1.94, 2.05), 0, "identical"},
		{"ten wins beyond the parent's spread", speedup,
			[]float64{1.7, 1.8, 1.75, 1.9, 1.6, 1.8, 1.7, 1.85, 1.75, 1.8},
			[]float64{2.7, 2.8, 2.6, 2.9, 2.5, 2.7, 2.8, 2.6, 2.75, 2.7}, 10, "improved"},
		{"eight wins of ten is not a gain", speedup,
			[]float64{1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.3, 1.3},
			[]float64{1.1, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1, 1.2, 1.2}, 8, "ok"},
		{"wins inside the parent's spread are not a gain", setup,
			[]float64{1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0},
			[]float64{0.99, 1.99, 0.99, 1.99, 0.99, 1.99, 0.99, 1.99, 0.99, 1.99}, 10, "unresolved"},
		{"lower is better: slower beyond the bound", setup, ten(2.0, 2.1, 1.9), ten(2.8, 2.9, 2.7), 0, "regressed"},
		{"slower within the bound", setup, ten(2.0, 2.1, 1.9), ten(2.2, 2.3, 2.1), 0, "ok"},
		{"spread wider than the bound", setup,
			[]float64{1, 2, 3, 1, 2, 3, 1, 2, 3, 2}, []float64{2, 1, 3, 2, 1, 3, 2, 1, 3, 2}, 3, "unresolved"},
	}
	for _, tc := range cases {
		r := judge(tc.m, tc.parent, tc.change)
		if r.verdict != tc.verdict || r.wins != tc.wins {
			t.Errorf("%s: verdict %q with %d wins, want %q with %d (%+v)", tc.name, r.verdict, r.wins, tc.verdict, tc.wins, r)
		}
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 2 3 4", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{7})
	if q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v %v %v, want 7 7 7", q1, med, q3)
	}
}
