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

// engines are the package's two entry points over the one skeleton.
var engines = map[string]func(*hypergraph.H, Options) (*Result, error){
	"flat": Partition, "n-level": PartitionN,
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

func TestPartitionErrors(t *testing.T) {
	h := flatViterbi(t)
	cases := []struct {
		name string
		opts Options
	}{
		{"K=1", Options{K: 1, B: 10}},
		{"B=0", Options{K: 2, B: 0}},
		{"K above the vertex count", Options{K: h.NumVertices() + 1, B: 10}},
	}
	for name, run := range engines {
		for _, c := range cases {
			if _, err := run(h, c.opts); err == nil {
				t.Errorf("%s: %s should error", name, c.name)
			}
		}
		// A negative Restarts takes the default, like 0 does.
		def, err := run(h, Options{K: 2, B: 10, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		neg, err := run(h, Options{K: 2, B: 10, Seed: 1, Restarts: -3})
		if err != nil {
			t.Fatalf("%s: Restarts=-3: %v", name, err)
		}
		if neg.Cut != def.Cut || neg.Restart != def.Restart {
			t.Errorf("%s: Restarts=-3 gave cut %d restart %d, default gives %d / %d",
				name, neg.Cut, neg.Restart, def.Cut, def.Restart)
		}
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
	for name, run := range engines {
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
