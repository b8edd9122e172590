package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/clustersim"
	"repro/internal/gen"
	"repro/internal/sim"
)

// smallContext builds a context over a small workload so the whole grid
// runs in a couple of seconds.
func smallContext(t *testing.T) *Context {
	t.Helper()
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{
		ED: ed,
		Ks: []int{2, 3}, Bs: []float64{5, 10, 15},
		PresimCycles: 200, FullCycles: 400, Seed: 1, MLBalance: 5,
	}
	ctx.Init()
	return ctx
}

func TestTable1MonotoneCutInB(t *testing.T) {
	ctx := smallContext(t)
	tab, err := ctx.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "Hyperedge cut") {
		t.Error("table header missing")
	}
	// The carry-over rule makes the cut nonincreasing in b per k.
	for _, k := range ctx.Ks {
		prev := 1 << 30
		for _, b := range ctx.Bs {
			rec, err := ctx.Partition(k, b)
			if err != nil {
				t.Fatal(err)
			}
			if rec.cut > prev {
				t.Errorf("k=%d: cut rose from %d to %d at b=%g", k, prev, rec.cut, b)
			}
			prev = rec.cut
		}
	}
}

func TestTable2IndependentOfB(t *testing.T) {
	ctx := smallContext(t)
	tab, err := ctx.Table2()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + separator + |Ks|*|Bs| rows
	want := 2 + len(ctx.Ks)*len(ctx.Bs)
	if len(lines) != want {
		t.Errorf("table has %d lines, want %d:\n%s", len(lines), want, out)
	}
}

func TestGridAndDerivedTables(t *testing.T) {
	ctx := smallContext(t)
	points, err := ctx.PresimGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(ctx.Ks)*len(ctx.Bs) {
		t.Fatalf("grid has %d points", len(points))
	}
	for _, p := range points {
		if p.Speedup <= 0 {
			t.Errorf("k=%d b=%g: speedup %f", p.K, p.B, p.Speedup)
		}
		if p.SimTime <= 0 || p.SeqTime <= 0 {
			t.Errorf("k=%d b=%g: times %f/%f", p.K, p.B, p.SimTime, p.SeqTime)
		}
	}
	best := BestPerK(points)
	if len(best) != len(ctx.Ks) {
		t.Errorf("BestPerK: %d entries", len(best))
	}
	if s := Table3(points).String(); !strings.Contains(s, "Speedup") {
		t.Error("Table3 malformed")
	}
	if s := Table4(points, ctx.Ks).String(); !strings.Contains(s, "cut-size") {
		t.Error("Table4 malformed")
	}
	if s := Fig6(points, ctx.Ks, ctx.Bs).String(); !strings.Contains(s, "b=5") {
		t.Error("Fig6 malformed")
	}
	if s := Fig7(points, ctx.Ks, ctx.Bs).String(); !strings.Contains(s, "machines") {
		t.Error("Fig7 malformed")
	}

	tab, series, err := ctx.FullRuns(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(ctx.Ks)+1 {
		t.Errorf("Figure 5 series has %d entries, want %d", len(series), len(ctx.Ks)+1)
	}
	if series[0] <= 0 {
		t.Error("sequential time missing from Figure 5 series")
	}
	if !strings.Contains(tab.String(), "Simulation time") {
		t.Error("Table5 malformed")
	}
}

func TestAblations(t *testing.T) {
	ctx := smallContext(t)
	if tab, err := ctx.AblationPairing(10); err != nil {
		t.Errorf("pairing: %v", err)
	} else if !strings.Contains(tab.String(), "gain") {
		t.Error("pairing ablation missing strategies")
	}
	if tab, err := ctx.AblationFlattening(); err != nil {
		t.Errorf("flattening: %v", err)
	} else if !strings.Contains(tab.String(), "off") {
		t.Error("flattening ablation missing off row")
	}
	if tab, err := ctx.AblationInitial(2, 10); err != nil {
		t.Errorf("initial: %v", err)
	} else if !strings.Contains(tab.String(), "cone") {
		t.Error("initial ablation missing cone row")
	}
}

func TestHeuristicStudy(t *testing.T) {
	ctx := smallContext(t)
	s, err := ctx.HeuristicStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "heuristic") || !strings.Contains(s, "brute force") {
		t.Errorf("study output malformed: %s", s)
	}
}

func TestActivityWeightStudy(t *testing.T) {
	ctx := smallContext(t)
	s, err := ctx.ActivityWeightStudy(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "activity weights") {
		t.Errorf("study output malformed: %s", s)
	}
}

func TestHierarchyStudy(t *testing.T) {
	tab, err := HierarchyStudy(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "speedup") {
		t.Error("hierarchy study malformed")
	}
}

func TestScaleStudy(t *testing.T) {
	tab, err := ScaleStudy([]int{4, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "4 (8)") || !strings.Contains(out, "5 (16)") {
		t.Errorf("scale study malformed:\n%s", out)
	}
}

func TestAblationRecursive(t *testing.T) {
	ctx := smallContext(t)
	tab, err := ctx.AblationRecursive(10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "recursive cut") {
		t.Error("recursive ablation malformed")
	}
}

func TestClusteringStudy(t *testing.T) {
	ctx := smallContext(t)
	tab, err := ctx.ClusteringStudy(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "design hierarchy") || !strings.Contains(out, "bottom-up clusters") {
		t.Errorf("clustering study malformed:\n%s", out)
	}
}

// TestPresimGridParallelDeterminism: the grid with concurrent k-rows must
// reproduce the sequential grid point-for-point (the carry-over across b
// only ever looks at the same k, so rows are independent).
func TestPresimGridParallelDeterminism(t *testing.T) {
	seq := smallContext(t)
	seq.Workers = 1
	seqPts, err := seq.PresimGrid()
	if err != nil {
		t.Fatal(err)
	}
	par := smallContext(t)
	par.ED = seq.ED
	par.Workers = len(par.Ks)
	parPts, err := par.PresimGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqPts) != len(parPts) {
		t.Fatalf("point counts differ: %d vs %d", len(seqPts), len(parPts))
	}
	for i := range seqPts {
		p, q := seqPts[i], parPts[i]
		if *p != *q {
			t.Errorf("grid point %d differs: %+v vs %+v", i, p, q)
		}
	}
}

// TestPackedGridBitIdentical is the experiments layer of the
// scalar-vs-packed differential: every grid point, modeled by replaying
// the context's shared wave bank, and every full run, modeled over a
// private bank, equals the scalar reference generator run on the same
// partition.
func TestPackedGridBitIdentical(t *testing.T) {
	ctx := smallContext(t)
	points, err := ctx.PresimGrid()
	if err != nil {
		t.Fatal(err)
	}
	_, series, err := ctx.FullRuns(points)
	if err != nil {
		t.Fatal(err)
	}
	scalar := func(k int, b float64, cycles uint64) *clustersim.Result {
		parts, err := ctx.PartitionParts(k, b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := clustersim.Run(clustersim.Config{
			NL: ctx.ED.Netlist, GateParts: parts, K: k,
			Vectors: sim.RandomVectors{Seed: ctx.Seed}, Cycles: cycles, Costs: ctx.Costs,
			Packed: clustersim.PackedOff,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, p := range points {
		res := scalar(p.K, p.B, ctx.PresimCycles)
		want := GridPoint{
			K: p.K, B: p.B, Cut: p.Cut,
			SimTime: res.ParTime, SeqTime: res.SeqTime, Speedup: res.Speedup,
			Messages: res.Messages, Rollbacks: res.Rollbacks,
			CritPath: res.CritPath, BoundSpeedup: res.BoundSpeedup,
		}
		if *p != want {
			t.Errorf("grid point diverges:\nshared bank: %+v\nscalar:      %+v", *p, want)
		}
	}
	var want []float64
	best := BestPerK(points)
	for _, k := range ctx.Ks {
		res := scalar(k, best[k].B, ctx.FullCycles)
		if want == nil {
			want = append(want, res.SeqTime)
		}
		want = append(want, res.ParTime)
	}
	if !reflect.DeepEqual(series, want) {
		t.Errorf("full-run series diverge:\nprivate banks: %v\nscalar:        %v", series, want)
	}
}
