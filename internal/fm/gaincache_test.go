package fm

import (
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
)

func randomDynH(rng *rand.Rand, nv, ne, maxPins int) *hypergraph.H {
	h := &hypergraph.H{}
	for i := 0; i < nv; i++ {
		h.Vertices = append(h.Vertices, hypergraph.Vertex{ID: hypergraph.VertexID(i), Weight: 1 + rng.Intn(3)})
		h.TotalWeight += h.Vertices[i].Weight
	}
	for e := 0; e < ne; e++ {
		n := 2 + rng.Intn(maxPins-1)
		if n > nv {
			n = nv
		}
		perm := rng.Perm(nv)[:n]
		pins := make([]hypergraph.VertexID, n)
		for i, p := range perm {
			pins[i] = hypergraph.VertexID(p)
		}
		h.Edges = append(h.Edges, hypergraph.Edge{ID: hypergraph.EdgeID(e), Pins: pins, Weight: 1 + rng.Intn(3)})
		for _, p := range pins {
			h.Vertices[p].Edges = append(h.Vertices[p].Edges, hypergraph.EdgeID(e))
		}
	}
	return h
}

// TestGainCacheMatchesRecompute is the ISSUE's property test: after random
// contractions, moves and uncontractions in any interleaving, the
// incrementally maintained gains must equal recompute-from-scratch, and
// every Gain() must equal the observed cut delta of actually making the
// move.
func TestGainCacheMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomDynH(rng, 16+rng.Intn(20), 30+rng.Intn(40), 5)
		d := hypergraph.NewDyn(h)
		k := 2 + rng.Intn(3)

		// Contract a random half of the graph.
		var active []hypergraph.VertexID
		target := d.NumActive() / 2
		for d.NumActive() > target {
			active = d.ActiveVertices(active)
			u := active[rng.Intn(len(active))]
			v := active[rng.Intn(len(active))]
			for v == u {
				v = active[rng.Intn(len(active))]
			}
			d.Contract(u, v)
		}

		parts := make([]int32, d.NumVertices())
		for v := range parts {
			parts[v] = int32(rng.Intn(k))
		}
		gc := NewGainCache(d, k)
		gc.Reset(parts)
		if err := gc.Check(); err != nil {
			t.Fatalf("seed %d after Reset: %v", seed, err)
		}

		for step := 0; step < 200; step++ {
			if d.Depth() > 0 && rng.Intn(3) == 0 {
				m := d.Uncontract()
				gc.OnUncontract(m)
				if err := gc.Check(); err != nil {
					t.Fatalf("seed %d step %d after OnUncontract(%d,%d): %v", seed, step, m.U, m.V, err)
				}
				continue
			}
			active = d.ActiveVertices(active)
			v := active[rng.Intn(len(active))]
			to := int32(rng.Intn(k))
			if to == gc.Part(v) {
				continue
			}
			g := gc.Gain(v, to)
			before := gc.WeightedCut()
			gc.Move(v, to)
			after := gc.WeightedCut()
			if before-after != g {
				t.Fatalf("seed %d step %d: Gain(%d→%d)=%d but cut went %d→%d", seed, step, v, to, g, before, after)
			}
			if err := gc.Check(); err != nil {
				t.Fatalf("seed %d step %d after Move(%d→%d): %v", seed, step, v, to, err)
			}
		}
	}
}

// TestGainCacheBestMoveTieBreak checks BestMove prefers the smallest
// block index among equal-gain feasible targets.
func TestGainCacheBestMoveTieBreak(t *testing.T) {
	// Isolated vertex: every target has gain 0 — must pick block 0's
	// successor deterministically.
	h := &hypergraph.H{}
	for i := 0; i < 2; i++ {
		h.Vertices = append(h.Vertices, hypergraph.Vertex{ID: hypergraph.VertexID(i), Weight: 1})
		h.TotalWeight++
	}
	d := hypergraph.NewDyn(h)
	gc := NewGainCache(d, 4)
	gc.Reset([]int32{1, 1})
	best, gain, ok := gc.BestMove(0, func(v hypergraph.VertexID, from, to int32) bool { return true })
	if !ok || gain != 0 || best != 0 {
		t.Fatalf("BestMove = (%d, %d, %v), want (0, 0, true)", best, gain, ok)
	}
	// With block 0 infeasible, the next smallest wins.
	best, _, ok = gc.BestMove(0, func(v hypergraph.VertexID, from, to int32) bool { return to != 0 })
	if !ok || best != 2 {
		t.Fatalf("BestMove with 0 infeasible = %d, want 2", best)
	}
}

// TestKWayLocalSearchImproves builds a small graph with an obviously
// misplaced vertex and checks LocalSearch fixes it and respects locks.
func TestKWayLocalSearchImproves(t *testing.T) {
	// Star: vertex 0 connected to 1,2,3 by three 2-pin edges; 0 in block
	// 1, everything else in block 0. Moving 0 to block 0 gains 3.
	h := &hypergraph.H{}
	for i := 0; i < 4; i++ {
		h.Vertices = append(h.Vertices, hypergraph.Vertex{ID: hypergraph.VertexID(i), Weight: 1})
		h.TotalWeight++
	}
	for i := 1; i <= 3; i++ {
		e := hypergraph.EdgeID(i - 1)
		h.Edges = append(h.Edges, hypergraph.Edge{ID: e, Pins: []hypergraph.VertexID{0, hypergraph.VertexID(i)}, Weight: 1})
		h.Vertices[0].Edges = append(h.Vertices[0].Edges, e)
		h.Vertices[i].Edges = append(h.Vertices[i].Edges, e)
	}
	d := hypergraph.NewDyn(h)
	gc := NewGainCache(d, 2)
	gc.Reset([]int32{1, 0, 0, 0})
	kw := NewRefiner(gc, nil)
	if gc.CutSize() != 3 {
		t.Fatalf("initial cut %d, want 3", gc.CutSize())
	}
	gain := kw.LocalSearch(0)
	if gain != 3 || gc.CutSize() != 0 {
		t.Fatalf("LocalSearch gain %d cut %d, want 3 and 0", gain, gc.CutSize())
	}
	if err := gc.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestKWayGlobalRoundDeterministic runs global rounds at 1 and 4 workers
// from identical states and requires identical assignments.
func TestKWayGlobalRoundDeterministic(t *testing.T) {
	run := func(workers int) []int32 {
		rng := rand.New(rand.NewSource(11))
		h := randomDynH(rng, 40, 80, 4)
		d := hypergraph.NewDyn(h)
		parts := make([]int32, len(h.Vertices))
		for v := range parts {
			parts[v] = int32(rng.Intn(3))
		}
		gc := NewGainCache(d, 3)
		gc.Reset(parts)
		kw := NewRefiner(gc, nil)
		kw.GlobalRounds(workers, 16)
		out := make([]int32, len(parts))
		copy(out, gc.Parts())
		return out
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vertex %d: workers=1 → %d, workers=4 → %d", i, a[i], b[i])
		}
	}
}
