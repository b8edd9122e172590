package hypergraph

import (
	"math/rand"
	"testing"
)

// randomH builds a random hypergraph with nv vertices and ne edges of
// 2..maxPins distinct pins each.
func randomH(rng *rand.Rand, nv, ne, maxPins int) *H {
	vs := make([]Vertex, nv)
	for i := range vs {
		vs[i] = Vertex{Weight: 1 + rng.Intn(3)}
	}
	var es []Edge
	for e := 0; e < ne; e++ {
		n := 2 + rng.Intn(maxPins-1)
		if n > nv {
			n = nv
		}
		perm := rng.Perm(nv)[:n]
		pins := make([]VertexID, n)
		for i, p := range perm {
			pins[i] = VertexID(p)
		}
		es = append(es, Edge{Pins: pins, Weight: 1 + rng.Intn(2)})
	}
	return New(vs, es)
}

// snapshot captures the observable state of d for later comparison.
type dynSnap struct {
	weight map[VertexID]int
	pins   map[EdgeID]map[VertexID]bool
	inc    map[VertexID]map[EdgeID]bool
}

func snapDyn(d *Dyn) dynSnap {
	s := dynSnap{
		weight: map[VertexID]int{},
		pins:   map[EdgeID]map[VertexID]bool{},
		inc:    map[VertexID]map[EdgeID]bool{},
	}
	for v := 0; v < d.NumVertices(); v++ {
		if !d.Active(VertexID(v)) {
			continue
		}
		s.weight[VertexID(v)] = d.Weight(VertexID(v))
		set := map[EdgeID]bool{}
		for _, e := range d.Incident(VertexID(v)) {
			set[e] = true
		}
		s.inc[VertexID(v)] = set
	}
	for e := 0; e < d.NumEdges(); e++ {
		set := map[VertexID]bool{}
		for _, p := range d.Pins(EdgeID(e)) {
			set[p] = true
		}
		s.pins[EdgeID(e)] = set
	}
	return s
}

func (s dynSnap) equal(o dynSnap) bool {
	if len(s.weight) != len(o.weight) || len(s.inc) != len(o.inc) {
		return false
	}
	for v, w := range s.weight {
		if o.weight[v] != w {
			return false
		}
	}
	for v, set := range s.inc {
		oset, ok := o.inc[v]
		if !ok || len(oset) != len(set) {
			return false
		}
		for e := range set {
			if !oset[e] {
				return false
			}
		}
	}
	for e, set := range s.pins {
		oset := o.pins[e]
		if len(oset) != len(set) {
			return false
		}
		for p := range set {
			if !oset[p] {
				return false
			}
		}
	}
	return true
}

// TestDynContractUncontractRoundTrip contracts random pairs all the way
// down and uncontracts back up, checking the structure is restored
// exactly and stays valid at every step.
func TestDynContractUncontractRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 20+rng.Intn(30), 40+rng.Intn(40), 5)
		d := NewDyn(h)
		orig := snapDyn(d)

		var snaps []dynSnap
		var active []VertexID
		for d.NumActive() > 1 {
			snaps = append(snaps, snapDyn(d))
			active = d.ActiveVertices(active)
			u := active[rng.Intn(len(active))]
			v := active[rng.Intn(len(active))]
			for v == u {
				v = active[rng.Intn(len(active))]
			}
			d.Contract(u, v)
			if err := d.Validate(); err != nil {
				t.Fatalf("seed %d after Contract(%d,%d): %v", seed, u, v, err)
			}
		}
		for d.Depth() > 0 {
			d.Uncontract()
			if err := d.Validate(); err != nil {
				t.Fatalf("seed %d after Uncontract at depth %d: %v", seed, d.Depth(), err)
			}
			if !snapDyn(d).equal(snaps[d.Depth()]) {
				t.Fatalf("seed %d: snapshot mismatch at depth %d", seed, d.Depth())
			}
		}
		if !snapDyn(d).equal(orig) {
			t.Fatalf("seed %d: final state differs from original", seed)
		}
		if d.NumActive() != len(h.Vertices) || d.TotalWeight() != h.TotalWeight {
			t.Fatalf("seed %d: active/total not restored", seed)
		}
	}
}

// TestDynCutMatchesStatic checks that the Dyn cut at full resolution
// matches the static CutSize, and that after contractions the Dyn cut
// over active pins equals the static cut when parts respect contraction
// groups (every contracted vertex assigned its representative's part).
func TestDynCutMatchesStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomH(rng, 30, 60, 5)
	d := NewDyn(h)

	parts := make([]int32, len(h.Vertices))
	for v := range parts {
		parts[v] = int32(rng.Intn(4))
	}
	a := &Assignment{K: 4, Parts: append([]int32(nil), parts...)}
	if got, want := d.CutSize(parts), CutSize(h, a); got != want {
		t.Fatalf("full-resolution cut: dyn %d static %d", got, want)
	}

	// Contract half the vertices; track representatives.
	rep := make([]VertexID, len(h.Vertices))
	for v := range rep {
		rep[v] = VertexID(v)
	}
	var active []VertexID
	for i := 0; i < 15; i++ {
		active = d.ActiveVertices(active)
		u := active[rng.Intn(len(active))]
		v := active[rng.Intn(len(active))]
		for v == u {
			v = active[rng.Intn(len(active))]
		}
		d.Contract(u, v)
		rep[v] = u
	}
	// Coarse parts: every finest vertex takes its representative's part.
	find := func(v VertexID) VertexID {
		for rep[v] != v {
			v = rep[v]
		}
		return v
	}
	coarse := make([]int32, len(h.Vertices))
	for v := range coarse {
		coarse[v] = parts[find(VertexID(v))]
	}
	a2 := &Assignment{K: 4, Parts: coarse}
	if got, want := d.CutSize(coarse), CutSize(h, a2); got != want {
		t.Fatalf("coarse cut: dyn %d static %d", got, want)
	}
	sumLoads := 0
	for _, l := range d.Loads(coarse, 4) {
		sumLoads += l
	}
	if sumLoads != h.TotalWeight {
		t.Fatalf("loads sum %d != total %d", sumLoads, h.TotalWeight)
	}
}

// TestDynParallelEdgeAndSingleton exercises edges collapsing to size 1
// and parallel edges staying separate.
func TestDynParallelEdgeAndSingleton(t *testing.T) {
	// Two parallel edges {0,1} and one edge {0,1,2}.
	h := New([]Vertex{{Weight: 1}, {Weight: 1}, {Weight: 1}}, []Edge{
		{Pins: []VertexID{0, 1}, Weight: 1},
		{Pins: []VertexID{0, 1}, Weight: 1},
		{Pins: []VertexID{0, 1, 2}, Weight: 1},
	})

	d := NewDyn(h)
	d.Contract(0, 1)
	if d.EdgeSize(0) != 1 || d.EdgeSize(1) != 1 {
		t.Fatalf("parallel edges should both shrink to 1, got %d %d", d.EdgeSize(0), d.EdgeSize(1))
	}
	if d.EdgeSize(2) != 2 {
		t.Fatalf("edge {0,1,2} should shrink to 2, got %d", d.EdgeSize(2))
	}
	if d.Weight(0) != 2 {
		t.Fatalf("weight of 0 after contract = %d, want 2", d.Weight(0))
	}
	d.Contract(2, 0)
	if d.EdgeSize(2) != 1 {
		t.Fatalf("edge {0,1,2} should shrink to 1, got %d", d.EdgeSize(2))
	}
	if d.NumActive() != 1 {
		t.Fatalf("one active vertex expected, got %d", d.NumActive())
	}
	d.Uncontract()
	d.Uncontract()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.EdgeSize(0) != 2 || d.EdgeSize(1) != 2 || d.EdgeSize(2) != 3 {
		t.Fatalf("sizes not restored: %d %d %d", d.EdgeSize(0), d.EdgeSize(1), d.EdgeSize(2))
	}
}
