package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// writeSpec writes a BENCHMARK.json whose driver command is sh -c script
// into dir, with one workload, one end-to-end metric and one per-layer
// metric.
func writeSpec(t *testing.T, dir, script string) {
	t.Helper()
	buf, err := json.Marshal(map[string]any{
		"command":     []string{"sh", "-c", script, "driver"},
		"run_seconds": 1,
		"workloads":   []map[string]string{{"name": "w1"}},
		"end_to_end":  []map[string]any{{"name": "wall_s", "better": "lower", "bound": 0.25}},
		"per_layer":   []map[string]string{{"name": "layer.x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsBadFlags holds every rejection to one line, made before the
// driver runs once and before anything is printed (main exits 2 on it).
func TestRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir, "touch ran; exit 1")
	cases := []struct {
		name              string
		parent            string
		pairs             int
		workloads, layers string
		want              string // substring of the error
	}{
		{"no pairs", dir, 0, "w1", "", "-pairs 0: want at least 1"},
		{"negative pairs", dir, -1, "", "", "-pairs -1: want at least 1"},
		{"negative pairs for one workload", dir, 10, "w1:-3", "", `"w1:-3": the pair count must be an integer of at least 1`},
		{"no pairs for one workload", dir, 10, "w1:0", "", `"w1:0": the pair count`},
		{"a pair count that is not a number", dir, 10, "w1:x", "", `"w1:x": the pair count`},
		{"unknown workload", dir, 10, "w2", "", `"w2" is not a workload of BENCHMARK.json`},
		{"empty workload entry", dir, 10, "w1,", "", `"" is not a workload`},
		{"unknown layer", dir, 10, "w1", "layer.y", `"layer.y" is not a per_layer metric`},
		{"empty layer entry", dir, 10, "w1", "layer.x,", `"" is not a per_layer metric`},
		{"no parent", "", 10, "w1", "", "-parent is required"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(&out, tc.parent, dir, tc.pairs, tc.workloads, tc.layers)
		switch {
		case err == nil || !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		case strings.Contains(err.Error(), "\n"):
			t.Errorf("%s: error %q spans more than one line", tc.name, err)
		case out.Len() > 0:
			t.Errorf("%s: printed %q before rejecting", tc.name, out.String())
		}
		if _, serr := os.Stat(filepath.Join(dir, "ran")); serr == nil {
			t.Fatalf("%s: the driver ran", tc.name)
		}
	}
}

// TestProtocol runs the protocol over a stub driver that reads which side
// it is from a file in its checkout: odd seeds run the change first, the
// failed-checks line sums each side's runs, and -layers adds one traced
// pair whose values are printed side by side.
func TestProtocol(t *testing.T) {
	root := t.TempDir()
	const script = `side=$(cat side)
echo "$side seed=$4 trace=$8" >> ../order.log
if [ "$side" = parent ]; then v=1 failed=1; else v=2 failed=0; fi
echo "driver output before the contract line"
echo "{\"attempted\":3,\"failed\":$failed,\"metrics\":{\"wall_s\":{\"value\":$v},\"layer.x\":{\"value\":$((10 * $8 + v))}}}"`
	dirs := map[string]string{}
	for _, side := range []string{"parent", "change"} {
		dirs[side] = filepath.Join(root, side)
		if err := os.Mkdir(dirs[side], 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dirs[side], "side"), []byte(side), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSpec(t, dirs["change"], script)
	var out bytes.Buffer
	if err := run(&out, dirs["parent"], dirs["change"], 2, "", "layer.x"); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	order, err := os.ReadFile(filepath.Join(root, "order.log"))
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := `change seed=1 trace=0
parent seed=1 trace=0
parent seed=2 trace=0
change seed=2 trace=0
parent seed=1 trace=1
change seed=1 trace=1
`
	if string(order) != wantOrder {
		t.Errorf("runs made in the order\n%swant\n%s", order, wantOrder)
	}
	report := out.String()
	if !strings.Contains(report, "failed checks: parent 2 of 6, change 0 of 6") {
		t.Errorf("no failed-checks line summing both pairs:\n%s", report)
	}
	traced := false
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "w1" && f[1] == "layer.x" {
			traced = f[2] == "11" && f[3] == "12"
		}
	}
	if !traced {
		t.Errorf("no traced row reading parent 11, change 12:\n%s", report)
	}
}
