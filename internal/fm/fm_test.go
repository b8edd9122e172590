package fm

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
)

// buildChain makes a hypergraph that is a simple chain of n unit-weight
// vertices: v0-v1, v1-v2, ... Each edge has two pins.
func buildChain(n int) *hypergraph.H {
	var vs []hypergraph.Vertex
	var es []hypergraph.Edge
	for i := 0; i < n; i++ {
		vs = append(vs, hypergraph.Vertex{Name: "v", Weight: 1, Gate: -1})
	}
	for i := 0; i+1 < n; i++ {
		es = append(es, hypergraph.Edge{Pins: []hypergraph.VertexID{hypergraph.VertexID(i), hypergraph.VertexID(i + 1)}, Weight: 1})
	}
	return hypergraph.New(vs, es)
}

func TestRefinePairChainAlternating(t *testing.T) {
	// Chain of 8 with alternating parts: cut = 7. FM should reach cut 1
	// (contiguous halves) under a generous balance allowance.
	h := buildChain(8)
	a := hypergraph.NewAssignment(h, 2)
	for i := range a.Parts {
		a.Parts[i] = int32(i % 2)
	}
	before := hypergraph.CutSize(h, a)
	if before != 7 {
		t.Fatalf("setup: cut %d, want 7", before)
	}
	feasible := func(v hypergraph.VertexID, from, to int32, loads []int) bool {
		return loads[to]+h.Vertices[v].Weight <= 6 // allow imbalance up to 6/2
	}
	res := RefinePair(h, a, 0, 1, feasible, 0)
	after := hypergraph.CutSize(h, a)
	if after != before-res.GainTotal {
		t.Errorf("gain accounting wrong: before %d, after %d, gain %d", before, after, res.GainTotal)
	}
	if after > 1 {
		t.Errorf("cut after refinement: %d, want <= 1", after)
	}
}

func TestRefinePairRespectsFeasibility(t *testing.T) {
	h := buildChain(8)
	a := hypergraph.NewAssignment(h, 2)
	for i := range a.Parts {
		a.Parts[i] = int32(i % 2)
	}
	// Forbid every move: nothing may change.
	before := hypergraph.CutSize(h, a)
	res := RefinePair(h, a, 0, 1, func(hypergraph.VertexID, int32, int32, []int) bool { return false }, 0)
	if res.GainTotal != 0 || hypergraph.CutSize(h, a) != before {
		t.Errorf("refinement changed a fully constrained assignment: %+v", res)
	}
}

func TestRefinePairNeverIncreasesCut(t *testing.T) {
	// Property: for random assignments of a real circuit, RefinePair never
	// increases the cut and keeps the assignment valid.
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := hypergraph.BuildHierarchical(ed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		k := 2 + rng.Intn(3)
		a := hypergraph.NewAssignment(h, k)
		for i := range a.Parts {
			a.Parts[i] = int32(rng.Intn(k))
		}
		before := hypergraph.CutSize(h, a)
		p := int32(rng.Intn(k))
		q := int32((int(p) + 1 + rng.Intn(k-1)) % k)
		res := RefinePair(h, a, p, q, nil, 0)
		after := hypergraph.CutSize(h, a)
		if after > before {
			t.Errorf("trial %d: cut increased %d -> %d", trial, before, after)
		}
		if before-after != res.GainTotal {
			t.Errorf("trial %d: gain mismatch: %d vs %d", trial, before-after, res.GainTotal)
		}
		if err := a.Validate(h); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
	_ = ed
}

func TestRefinePairLeavesOtherPartsAlone(t *testing.T) {
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := hypergraph.BuildHierarchical(ed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	a := hypergraph.NewAssignment(h, 4)
	for i := range a.Parts {
		a.Parts[i] = int32(rng.Intn(4))
	}
	inPart3 := map[hypergraph.VertexID]bool{}
	for vi, p := range a.Parts {
		if p == 3 {
			inPart3[hypergraph.VertexID(vi)] = true
		}
	}
	RefinePair(h, a, 0, 1, nil, 0)
	for vi, p := range a.Parts {
		if inPart3[hypergraph.VertexID(vi)] != (p == 3) {
			t.Fatalf("vertex %d moved in/out of part 3", vi)
		}
	}
}

func TestBucketListBasics(t *testing.T) {
	b := newBucketList(10, 5)
	if !b.empty() {
		t.Error("new list should be empty")
	}
	b.insert(3, 2)
	b.insert(4, -1)
	b.insert(5, 2)
	v, g := b.popBest(func(hypergraph.VertexID) bool { return true })
	if g != 2 || (v != 3 && v != 5) {
		t.Errorf("popBest: got v=%d g=%d", v, g)
	}
	b.update(4, 4)
	v, g = b.popBest(func(hypergraph.VertexID) bool { return true })
	if v != 4 || g != 4 {
		t.Errorf("after update: got v=%d g=%d", v, g)
	}
	// Rejecting everything returns NoVertex.
	v, _ = b.popBest(func(hypergraph.VertexID) bool { return false })
	if v != hypergraph.NoVertex {
		t.Errorf("expected NoVertex, got %d", v)
	}
	b.remove(3)
	b.remove(5)
	if !b.empty() {
		t.Error("list should be empty after removals")
	}
	// Removing a vertex not in the list is a no-op.
	b.remove(9)
}

// buildWeighted makes a 4-vertex hypergraph where one heavy edge should
// dominate refinement decisions: e1 = {0,1} weight 10, e2 = {1,2} weight 1,
// e3 = {2,3} weight 1.
func buildWeighted() *hypergraph.H {
	vs := make([]hypergraph.Vertex, 4)
	for i := range vs {
		vs[i] = hypergraph.Vertex{Weight: 1, Gate: -1}
	}
	var es []hypergraph.Edge
	add := func(w int, pins ...hypergraph.VertexID) {
		es = append(es, hypergraph.Edge{Pins: pins, Weight: w})
	}
	add(10, 0, 1)
	add(1, 1, 2)
	add(1, 2, 3)
	return hypergraph.New(vs, es)
}

func TestRefinePairHonorsEdgeWeights(t *testing.T) {
	h := buildWeighted()
	// Split {0} | {1,2,3}: the weight-10 edge is cut. Moving 1 to part 0
	// saves 10 and costs 1 — FM must take it even though the plain edge
	// count is a wash only with weights considered.
	a := hypergraph.NewAssignment(h, 2)
	a.Parts[0] = 0
	a.Parts[1], a.Parts[2], a.Parts[3] = 1, 1, 1
	res := RefinePair(h, a, 0, 1, func(v hypergraph.VertexID, from, to int32, loads []int) bool {
		return loads[to] < 3 // keep it from collapsing everything
	}, 0)
	if a.Parts[1] != 0 {
		t.Errorf("vertex 1 should join the heavy edge's side; parts=%v", a.Parts)
	}
	if res.GainTotal < 9 {
		t.Errorf("weighted gain %d, want >= 9", res.GainTotal)
	}
}

// Property: a full FM pass never leaves the cut worse than it started,
// even on weighted coarse graphs with random assignments.
func TestRefinePairWeightedNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		var vs []hypergraph.Vertex
		var es []hypergraph.Edge
		n := 6 + rng.Intn(10)
		for i := 0; i < n; i++ {
			vs = append(vs, hypergraph.Vertex{Weight: 1 + rng.Intn(5), Gate: -1})
		}
		edges := 5 + rng.Intn(15)
		for e := 0; e < edges; e++ {
			pinSet := map[hypergraph.VertexID]bool{}
			for len(pinSet) < 2+rng.Intn(3) {
				pinSet[hypergraph.VertexID(rng.Intn(n))] = true
			}
			var pins []hypergraph.VertexID
			for p := range pinSet {
				pins = append(pins, p)
			}
			sort.Slice(pins, func(i, j int) bool { return pins[i] < pins[j] })
			es = append(es, hypergraph.Edge{Pins: pins, Weight: 1 + rng.Intn(4)})
		}
		h := hypergraph.New(vs, es)
		a := hypergraph.NewAssignment(h, 2)
		for i := range a.Parts {
			a.Parts[i] = int32(rng.Intn(2))
		}
		weightedCut := func() int {
			c := 0
			for ei := range h.Edges {
				if hypergraph.EdgeSpansCut(h, a, hypergraph.EdgeID(ei)) {
					c += h.Edges[ei].Weight
				}
			}
			return c
		}
		before := weightedCut()
		res := RefinePair(h, a, 0, 1, nil, 0)
		after := weightedCut()
		if after > before {
			t.Fatalf("trial %d: weighted cut rose %d -> %d", trial, before, after)
		}
		if before-after != res.GainTotal {
			t.Fatalf("trial %d: gain accounting %d vs %d", trial, before-after, res.GainTotal)
		}
	}
}

// TestLocalSearchLeavesInteriorVerticesAlone: a localized search seeded
// where no net is cut moves nothing. Net {0,1} lies whole in block 1, net
// {2,3} whole in block 0, vertex 4 is on a single-pin net only. Before the
// border rule the plateau rule (keep zero-gain moves) carried 4, and then
// the whole of {0,1}, to block 0 and reported gain 0.
func TestLocalSearchLeavesInteriorVerticesAlone(t *testing.T) {
	vs := make([]hypergraph.Vertex, 5)
	for i := range vs {
		vs[i] = hypergraph.Vertex{Weight: 1, Gate: -1}
	}
	var es []hypergraph.Edge
	for _, pins := range [][]hypergraph.VertexID{{0, 1}, {2, 3}, {4}} {
		es = append(es, hypergraph.Edge{Pins: pins, Weight: 1})
	}
	h := hypergraph.New(vs, es)
	a := &hypergraph.Assignment{K: 2, Parts: []int32{1, 1, 0, 0, 1}}
	r := Over(h, a, nil)
	for _, seed := range []hypergraph.VertexID{4, 0} {
		if g := r.LocalSearch(seed); g != 0 {
			t.Errorf("LocalSearch(%d) = %d, want 0", seed, g)
		}
		if want := []int32{1, 1, 0, 0, 1}; !slices.Equal(a.Parts, want) {
			t.Fatalf("LocalSearch(%d) moved vertices: parts %v, want %v", seed, a.Parts, want)
		}
		if loads := r.Cache().Loads(); !slices.Equal(loads, []int{2, 3}) {
			t.Fatalf("LocalSearch(%d): loads %v, want [2 3]", seed, loads)
		}
	}
}
