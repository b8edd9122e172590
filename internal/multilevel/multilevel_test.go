package multilevel

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

func flatViterbi(t *testing.T) *hypergraph.H {
	t.Helper()
	c := gen.Viterbi(gen.ViterbiConfig{K: 5, W: 6, TB: 16})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := hypergraph.BuildFlat(ed)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestPartitionBasic(t *testing.T) {
	h := flatViterbi(t)
	for _, k := range []int{2, 3, 4} {
		res, err := Partition(h, Options{K: k, B: 10, Seed: 1})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := res.Assignment.Validate(h); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Balanced {
			t.Errorf("k=%d: not balanced: %v", k, res.Loads)
		}
		if res.Levels < 2 {
			t.Errorf("k=%d: expected real coarsening, got %d levels", k, res.Levels)
		}
		t.Logf("k=%d: cut=%d loads=%v levels=%d", k, res.Cut, res.Loads, res.Levels)
	}
}

func TestPartitionBetterThanRandom(t *testing.T) {
	h := flatViterbi(t)
	res, err := Partition(h, Options{K: 2, B: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	randA := hypergraph.NewAssignment(h, 2)
	for i := range randA.Parts {
		randA.Parts[i] = int32(rng.Intn(2))
	}
	randCut := hypergraph.CutSize(h, randA)
	if res.Cut*4 > randCut {
		t.Errorf("multilevel cut %d not ≪ random cut %d", res.Cut, randCut)
	}
}

func TestCoarsenPreservesWeight(t *testing.T) {
	h := flatViterbi(t)
	rng := rand.New(rand.NewSource(1))
	levels := coarsen(h, 50, rng)
	if len(levels) < 2 {
		t.Fatalf("no coarsening happened: %d levels", len(levels))
	}
	for li, lv := range levels {
		if lv.h.TotalWeight != h.TotalWeight {
			t.Errorf("level %d: weight %d, want %d", li, lv.h.TotalWeight, h.TotalWeight)
		}
		sum := 0
		for vi := range lv.h.Vertices {
			sum += lv.h.Vertices[vi].Weight
		}
		if sum != h.TotalWeight {
			t.Errorf("level %d: vertex weights sum %d", li, sum)
		}
		if li > 0 && lv.h.NumVertices() >= levels[li-1].h.NumVertices() {
			t.Errorf("level %d did not shrink: %d -> %d",
				li, levels[li-1].h.NumVertices(), lv.h.NumVertices())
		}
	}
	last := levels[len(levels)-1].h
	t.Logf("coarsened %d -> %d vertices over %d levels",
		h.NumVertices(), last.NumVertices(), len(levels))
}

func TestCoarsenMappingValid(t *testing.T) {
	h := flatViterbi(t)
	rng := rand.New(rand.NewSource(1))
	levels := coarsen(h, 50, rng)
	for li := 1; li < len(levels); li++ {
		fine := levels[li-1].h
		mapping := levels[li].fineToCoarse
		if len(mapping) != fine.NumVertices() {
			t.Fatalf("level %d: mapping covers %d of %d", li, len(mapping), fine.NumVertices())
		}
		for _, cv := range mapping {
			if cv < 0 || int(cv) >= levels[li].h.NumVertices() {
				t.Fatalf("level %d: mapping out of range: %d", li, cv)
			}
		}
	}
}

func TestContractMergesParallelEdges(t *testing.T) {
	// Two vertices joined by two parallel edges; contracting their
	// neighbours should merge projected identical edges with summed
	// weight.
	h := &hypergraph.H{}
	for i := 0; i < 4; i++ {
		h.Vertices = append(h.Vertices, hypergraph.Vertex{ID: hypergraph.VertexID(i), Weight: 1, Gate: -1})
		h.TotalWeight++
	}
	addEdge := func(pins ...hypergraph.VertexID) {
		id := hypergraph.EdgeID(len(h.Edges))
		h.Edges = append(h.Edges, hypergraph.Edge{ID: id, Pins: pins, Weight: 1})
		for _, p := range pins {
			h.Vertices[p].Edges = append(h.Vertices[p].Edges, id)
		}
	}
	addEdge(0, 2)
	addEdge(1, 3)
	addEdge(0, 3)
	// Cluster {0,1} -> c0, {2,3} -> c1: edges all become {c0,c1}, weight 3.
	coarse, mapping := contract(h, []int32{0, 0, 1, 1})
	if coarse.NumVertices() != 2 {
		t.Fatalf("coarse vertices: %d", coarse.NumVertices())
	}
	if len(coarse.Edges) != 1 || coarse.Edges[0].Weight != 3 {
		t.Fatalf("expected one merged edge of weight 3, got %+v", coarse.Edges)
	}
	if mapping[0] != mapping[1] || mapping[2] != mapping[3] || mapping[0] == mapping[2] {
		t.Errorf("mapping wrong: %v", mapping)
	}
	if coarse.Vertices[0].Weight != 2 || coarse.Vertices[1].Weight != 2 {
		t.Errorf("cluster weights wrong: %+v", coarse.Vertices)
	}
}

func TestContractDropsInternalEdges(t *testing.T) {
	h := &hypergraph.H{}
	for i := 0; i < 2; i++ {
		h.Vertices = append(h.Vertices, hypergraph.Vertex{ID: hypergraph.VertexID(i), Weight: 1, Gate: -1})
		h.TotalWeight++
	}
	h.Edges = append(h.Edges, hypergraph.Edge{ID: 0, Pins: []hypergraph.VertexID{0, 1}, Weight: 1})
	h.Vertices[0].Edges = []hypergraph.EdgeID{0}
	h.Vertices[1].Edges = []hypergraph.EdgeID{0}
	coarse, _ := contract(h, []int32{0, 0})
	if len(coarse.Edges) != 0 {
		t.Errorf("internal edge should vanish, got %d edges", len(coarse.Edges))
	}
}

func TestPartitionErrors(t *testing.T) {
	h := flatViterbi(t)
	if _, err := Partition(h, Options{K: 1, B: 10}); err == nil {
		t.Error("K=1 should error")
	}
	if _, err := Partition(h, Options{K: 2, B: 0}); err == nil {
		t.Error("B=0 should error")
	}
}

func TestPartitionDeterministicPerSeed(t *testing.T) {
	h := flatViterbi(t)
	a, err := Partition(h, Options{K: 2, B: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(h, Options{K: 2, B: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cut != b.Cut {
		t.Errorf("same seed produced different cuts: %d vs %d", a.Cut, b.Cut)
	}
}

func TestVCyclesNeverWorsen(t *testing.T) {
	h := flatViterbi(t)
	base, err := Partition(h, Options{K: 3, B: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := Partition(h, Options{K: 3, B: 10, Seed: 2, VCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if vc.Cut > base.Cut {
		t.Errorf("V-cycles worsened the cut: %d -> %d", base.Cut, vc.Cut)
	}
	if err := vc.Assignment.Validate(h); err != nil {
		t.Fatal(err)
	}
	t.Logf("cut without V-cycles: %d, with 2 V-cycles: %d", base.Cut, vc.Cut)
}

func TestCoarsenRespectingKeepsParts(t *testing.T) {
	h := flatViterbi(t)
	res, err := Partition(h, Options{K: 2, B: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	levels := coarsenRespecting(h, res.Assignment.Parts, 60, rng)
	if len(levels) < 2 {
		t.Skip("no coarsening possible")
	}
	// Project down and verify no merge crossed partitions: the projected
	// cut must equal the fine cut at every level.
	parts := res.Assignment.Parts
	fineCut := hypergraph.CutSize(h, res.Assignment)
	for li := 1; li < len(levels); li++ {
		coarseParts := make([]int32, levels[li].h.NumVertices())
		for vi, cv := range levels[li].fineToCoarse {
			coarseParts[cv] = parts[vi]
		}
		ca := &hypergraph.Assignment{K: 2, Parts: coarseParts}
		if got := hypergraph.CutSize(levels[li].h, ca); got != fineCut {
			t.Fatalf("level %d: projected cut %d != fine cut %d", li, got, fineCut)
		}
		parts = coarseParts
	}
}

// TestBalancedJudgedByFormula1Window pins the balance window both engines
// report against to partition.Constraint — the one the benchmark's oracle
// recounts with. The point is an integral endpoint: total 400, k=2,
// b=7.5 gives exactly [170, 230], and the graph's natural split (two
// dense clusters of weight 230 and 170 joined by one net) sits on it. The
// baseline's private copy of the window rounded that to [170, 229] and
// would have called the split unbalanced — and refused to move into it.
func TestBalancedJudgedByFormula1Window(t *testing.T) {
	h := &hypergraph.H{}
	for i := 0; i < 40; i++ {
		h.Vertices = append(h.Vertices, hypergraph.Vertex{ID: hypergraph.VertexID(i), Weight: 10, Gate: -1})
		h.TotalWeight += 10
	}
	edge := func(pins ...hypergraph.VertexID) {
		e := hypergraph.EdgeID(len(h.Edges))
		h.Edges = append(h.Edges, hypergraph.Edge{ID: e, Pins: pins, Weight: 1})
		for _, p := range pins {
			h.Vertices[p].Edges = append(h.Vertices[p].Edges, e)
		}
	}
	cluster := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				edge(hypergraph.VertexID(i), hypergraph.VertexID(j))
			}
		}
	}
	cluster(0, 23)  // weight 230
	cluster(23, 40) // weight 170
	edge(22, 23)

	window := partition.NewConstraint(h, 2, 7.5)
	if lo, hi := window.Bounds(); lo != 170 || hi != 230 {
		t.Fatalf("window [%d,%d], want [170,230]", lo, hi)
	}
	opts := Options{K: 2, B: 7.5, Seed: 1, CoarsestSize: 8}
	for name, run := range map[string]func(*hypergraph.H, Options) (*Result, error){
		"flat": Partition, "n-level": PartitionN,
	} {
		res, err := run(h, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Balanced != window.Satisfied(res.Loads) {
			t.Errorf("%s: Balanced=%v but formula-1 window says %v for loads %v",
				name, res.Balanced, window.Satisfied(res.Loads), res.Loads)
		}
		heavy := res.Loads[0]
		if res.Loads[1] > heavy {
			heavy = res.Loads[1]
		}
		if res.Cut != 1 || heavy != 230 || !res.Balanced {
			t.Errorf("%s: cut %d loads %v balanced %v, want the 230/170 split at cut 1, balanced",
				name, res.Cut, res.Loads, res.Balanced)
		}
	}
}
