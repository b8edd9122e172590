package fm

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hypergraph"
)

// driveLevelRefine decodes a hypergraph, a contraction sequence, an
// assignment of the surviving vertices and a schedule of uncontractions
// and searches on one Refiner over the contracted view — what the
// multilevel skeleton does on its way up — and checks the substrate after
// every step. Cuts and loads are recounted on the ORIGINAL hypergraph
// through the test's own record of who was contracted into whom, never
// through the Dyn. It returns how many uncontractions ran with searches
// still to come, and how many searches kept a gain on a contracted view.
func driveLevelRefine(t *testing.T, data []byte) (uncontracted, refined int) {
	s := &byteSource{data: data}
	h := fuzzHypergraph(s)
	nv := len(h.Vertices)
	d := hypergraph.NewDyn(h)

	type contraction struct{ u, v hypergraph.VertexID }
	var stack []contraction
	var active []hypergraph.VertexID
	for n := s.next() % nv; n > 0; n-- {
		active = d.ActiveVertices(active)
		iu := s.next() % len(active)
		iv := (iu + 1 + s.next()%(len(active)-1)) % len(active)
		d.Contract(active[iu], active[iv])
		stack = append(stack, contraction{active[iu], active[iv]})
	}
	// project maps every original vertex to the block of the active vertex
	// it currently sits in.
	project := func(parts []int32) []int32 {
		rep := make([]hypergraph.VertexID, nv)
		for v := range rep {
			rep[v] = hypergraph.VertexID(v)
		}
		for _, c := range stack {
			for x := range rep {
				if rep[x] == c.v {
					rep[x] = c.u
				}
			}
		}
		out := make([]int32, nv)
		for x := range out {
			out[x] = parts[rep[x]]
		}
		return out
	}

	k := 2 + s.next()%4
	// Inactive vertices get a block too: code that forgets to ask
	// Dyn.Active would find them eligible and move them.
	start := make([]int32, nv)
	for i := range start {
		start[i] = int32(s.next() % k)
	}
	var feasible Feasible
	if limit := s.next() % 4; limit > 0 {
		maxLoad := h.TotalWeight * limit / 3
		feasible = func(v hypergraph.VertexID, from, to int32, loads []int) bool {
			return loads[to]+d.Weight(v) <= maxLoad
		}
	}
	gc := NewGainCache(d, k)
	gc.Reset(start)
	r := NewRefiner(gc, feasible)
	parts := gc.Parts()

	cut := func() int { return weightedCut(h, project(parts)) }
	// check validates the substrate after a step that started from the
	// assignment `before`.
	check := func(step string, before []int32) {
		t.Helper()
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if err := gc.Check(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		proj := &hypergraph.Assignment{K: k, Parts: project(parts)}
		if got, want := gc.WeightedCut(), weightedCut(h, proj.Parts); got != want {
			t.Fatalf("%s: weighted cut %d, recounted on the original %d", step, got, want)
		}
		if want := hypergraph.PartLoads(h, proj); !slices.Equal(gc.Loads(), want) {
			t.Fatalf("%s: loads %v, recounted on the original %v", step, gc.Loads(), want)
		}
		for vi := range parts {
			v := hypergraph.VertexID(vi)
			if !d.Active(v) && parts[v] != before[v] {
				t.Fatalf("%s: inactive vertex %d went %d → %d", step, v, before[v], parts[v])
			}
		}
		if d.Depth() == 0 {
			if got, want := gc.CutSize(), hypergraph.CutSize(h, proj); got != want {
				t.Fatalf("%s: at full resolution cut %d, hypergraph.CutSize %d", step, got, want)
			}
		}
	}
	uncontract := func() {
		t.Helper()
		before, cutBefore := slices.Clone(parts), cut()
		want := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m := d.Uncontract()
		gc.OnUncontract(m)
		if m.U != want.u || m.V != want.v {
			t.Fatalf("uncontract: popped (%d,%d), contracted (%d,%d)", m.U, m.V, want.u, want.v)
		}
		if parts[m.V] != parts[m.U] {
			t.Fatalf("uncontract: %d woke in block %d beside %d in block %d", m.V, parts[m.V], m.U, parts[m.U])
		}
		if after := cut(); after != cutBefore {
			t.Fatalf("uncontract: cut %d → %d", cutBefore, after)
		}
		check("uncontract", before)
	}
	// refine runs one search, requires that it did not raise the cut, and
	// returns by how much the cut fell.
	refine := func(step string, search func()) int {
		t.Helper()
		before, cutBefore := slices.Clone(parts), cut()
		search()
		fell := cutBefore - cut()
		if fell < 0 {
			t.Fatalf("%s: cut %d → %d", step, cutBefore, cutBefore-fell)
		}
		if fell > 0 && d.Depth() > 0 {
			refined++
		}
		check(step, before)
		return fell
	}
	check("reset", start)

	for step := 0; step < 64 && !s.dry(); step++ {
		switch s.next() % 5 {
		case 0:
			if len(stack) > 0 {
				uncontract()
				uncontracted++
			}
		case 1:
			p, q := s.pair(k)
			maxPasses := s.next() % 3
			before := slices.Clone(parts)
			var res Result
			if fell := refine("refine pair", func() { res = r.RefinePair(p, q, maxPasses) }); fell != res.GainTotal {
				t.Fatalf("refine(%d,%d): cut fell by %d, GainTotal %d", p, q, fell, res.GainTotal)
			}
			for v, was := range before {
				if now := parts[v]; now != was && (was != p && was != q || now != p && now != q) {
					t.Fatalf("refine(%d,%d): vertex %d went %d → %d", p, q, v, was, now)
				}
			}
		case 2:
			p, q := s.pair(k)
			before := slices.Clone(parts)
			r.ProbePair(p, q)
			if !slices.Equal(parts, before) {
				t.Fatalf("probe(%d,%d) changed the assignment: %v → %v", p, q, before, parts)
			}
			check("probe", before)
		case 3: // seeds may be inactive: LocalSearch must skip those
			u, v := hypergraph.VertexID(s.next()%nv), hypergraph.VertexID(s.next()%nv)
			var kept int
			if fell := refine("local search", func() { kept = r.LocalSearch(u, v) }); fell != kept {
				t.Fatalf("local search(%d,%d): cut fell by %d, reported %d", u, v, fell, kept)
			}
		case 4:
			workers := 1 + s.next()%3
			refine("global round", func() { r.GlobalRound(workers) })
		}
	}
	for len(stack) > 0 {
		uncontract()
	}
	return uncontracted, refined
}

// FuzzLevelRefine searches for a hypergraph, contraction sequence,
// assignment and schedule of {uncontract, refine pair, probe pair, local
// search, global round} on which a search over a CONTRACTED view raises
// the cut or misreports its gain, moves a vertex that is not there, leaks
// a probe, or lets the Dyn or the gain cache drift from a recount on the
// original hypergraph — down to full resolution, where the cut must be
// hypergraph.CutSize's.
func FuzzLevelRefine(f *testing.F) {
	addRandomSeeds(f, 2)
	f.Fuzz(func(t *testing.T, data []byte) { driveLevelRefine(t, data) })
}

// TestLevelRefineSchedules drives the fuzz body over seeded random inputs
// on every plain `go test`, and requires that they exercise what the body
// checks: uncontractions in mid-schedule and searches that keep a gain
// while the view is still contracted.
func TestLevelRefineSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var uncontracted, refined int
	for i := 0; i < 300; i++ {
		b := make([]byte, 100+rng.Intn(400))
		rng.Read(b)
		u, r := driveLevelRefine(t, b)
		uncontracted += u
		refined += r
	}
	t.Logf("300 schedules: %d mid-schedule uncontractions, %d gainful searches on contracted views", uncontracted, refined)
	if uncontracted < 300 || refined < 100 {
		t.Errorf("schedules too tame: %d mid-schedule uncontractions, %d gainful searches on contracted views", uncontracted, refined)
	}
}
