package fm

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hypergraph"
)

// byteSource hands out the fuzz input one byte at a time (zeros once it
// runs dry), so every input decodes to some hypergraph and schedule.
type byteSource struct {
	data []byte
	pos  int
}

func (s *byteSource) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b)
}

func (s *byteSource) dry() bool { return s.pos >= len(s.data) }

// pair draws two distinct blocks out of k.
func (s *byteSource) pair(k int) (p, q int32) {
	p = int32(s.next() % k)
	q = int32((int(p) + 1 + s.next()%(k-1)) % k)
	return p, q
}

// addRandomSeeds gives a fuzz target its seed corpus: one all-zero input
// and six 300-byte random ones.
func addRandomSeeds(f *testing.F, seed int64) {
	f.Add([]byte{0, 0, 0})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 6; i++ {
		b := make([]byte, 300)
		rng.Read(b)
		f.Add(b)
	}
}

// fuzzHypergraph decodes a small hypergraph with weighted vertices and
// edges, single-pin edges and parallel edges (an edge repeating the
// previous one's pins) — the shapes coarsening produces and circuit nets
// never do.
func fuzzHypergraph(s *byteSource) *hypergraph.H {
	h := &hypergraph.H{}
	nv := 2 + s.next()%14
	for i := 0; i < nv; i++ {
		w := 1 + s.next()%4
		h.Vertices = append(h.Vertices, hypergraph.Vertex{ID: hypergraph.VertexID(i), Weight: w, Gate: -1})
		h.TotalWeight += w
	}
	ne := s.next() % 24
	for e := 0; e < ne; e++ {
		var pins []hypergraph.VertexID
		if e > 0 && s.next()%5 == 0 {
			pins = slices.Clone(h.Edges[e-1].Pins)
		} else {
			for n := 1 + s.next()%5; len(pins) < n && len(pins) < nv; {
				// Probe linearly past pins already drawn, so a dry source
				// still terminates.
				p := hypergraph.VertexID(s.next() % nv)
				for slices.Contains(pins, p) {
					p = (p + 1) % hypergraph.VertexID(nv)
				}
				pins = append(pins, p)
			}
		}
		id := hypergraph.EdgeID(e)
		h.Edges = append(h.Edges, hypergraph.Edge{ID: id, Pins: pins, Weight: 1 + s.next()%3})
		for _, p := range pins {
			h.Vertices[p].Edges = append(h.Vertices[p].Edges, id)
		}
	}
	return h
}

// weightedCut recounts the cut from nothing but pins and parts.
func weightedCut(h *hypergraph.H, parts []int32) int {
	cut := 0
	for ei := range h.Edges {
		if spans(h.Edges[ei].Pins, parts) {
			cut += h.Edges[ei].Weight
		}
	}
	return cut
}

func spans(pins []hypergraph.VertexID, parts []int32) bool {
	for _, p := range pins[1:] {
		if parts[p] != parts[pins[0]] {
			return true
		}
	}
	return false
}

// referenceRefinePair is the pair pass as a specification: the same pass
// rule as Refiner.RefinePair (all of p∪q free in vertex order, pop the
// best feasible move, lock, refresh the free pair vertices on the moved
// vertex's nets in net/pin order, strict best prefix, roll back) with
// every gain recounted from pins and parts and every structure rebuilt
// per pass. Slow and obviously right; the fuzz target requires the
// Refiner to reproduce it move for move.
func referenceRefinePair(h *hypergraph.H, parts []int32, k int, p, q int32, feasible Feasible, maxPasses int) Result {
	if maxPasses <= 0 {
		maxPasses = 16
	}
	other := func(part int32) int32 {
		if part == p {
			return q
		}
		return p
	}
	gain := func(v hypergraph.VertexID) int {
		g := 0
		from := parts[v]
		for _, e := range h.Vertices[v].Edges {
			pins := h.Edges[e].Pins
			before := spans(pins, parts)
			parts[v] = other(from)
			after := spans(pins, parts)
			parts[v] = from
			if before && !after {
				g += h.Edges[e].Weight
			} else if !before && after {
				g -= h.Edges[e].Weight
			}
		}
		return g
	}
	loads := make([]int, k)
	maxDeg := 1
	for vi := range h.Vertices {
		loads[parts[vi]] += h.Vertices[vi].Weight
		deg := 0
		for _, e := range h.Vertices[vi].Edges {
			deg += h.Edges[e].Weight
		}
		maxDeg = max(maxDeg, deg)
	}
	flip := func(v hypergraph.VertexID) {
		from, w := parts[v], h.Vertices[v].Weight
		loads[from] -= w
		loads[other(from)] += w
		parts[v] = other(from)
	}
	var res Result
	for pass := 0; pass < maxPasses; pass++ {
		buckets := newBucketList(len(h.Vertices), maxDeg)
		locked := make([]bool, len(h.Vertices))
		for vi := range h.Vertices {
			if parts[vi] == p || parts[vi] == q {
				buckets.insert(hypergraph.VertexID(vi), gain(hypergraph.VertexID(vi)))
			}
		}
		var moved []hypergraph.VertexID
		cum, bestCum, bestLen := 0, 0, 0
		for {
			v, g := buckets.popBest(func(v hypergraph.VertexID) bool {
				return feasible == nil || feasible(v, parts[v], other(parts[v]), loads)
			})
			if v == hypergraph.NoVertex {
				break
			}
			locked[v] = true
			flip(v)
			moved = append(moved, v)
			if cum += g; cum > bestCum {
				bestCum, bestLen = cum, len(moved)
			}
			for _, e := range h.Vertices[v].Edges {
				for _, n := range h.Edges[e].Pins {
					if n != v && !locked[n] && (parts[n] == p || parts[n] == q) {
						buckets.update(n, gain(n))
					}
				}
			}
		}
		for i := len(moved) - 1; i >= bestLen; i-- {
			flip(moved[i])
		}
		res.Passes++
		if bestCum <= 0 {
			break
		}
		res.GainTotal += bestCum
		res.Moves += bestLen
	}
	return res
}

// drivePairRefine decodes a hypergraph, an assignment and a schedule of
// operations on one long-lived Refiner, and checks the substrate after
// every step. It returns how many refinements kept a gain and how many
// probes found one.
func drivePairRefine(t *testing.T, data []byte) (refined, probed int) {
	s := &byteSource{data: data}
	h := fuzzHypergraph(s)
	k := 2 + s.next()%4
	a := &hypergraph.Assignment{K: k, Parts: make([]int32, len(h.Vertices))}
	for i := range a.Parts {
		a.Parts[i] = int32(s.next() % k)
	}
	var feasible Feasible
	if limit := s.next() % 4; limit > 0 {
		// A one-sided load cap somewhere between "everything fits" and
		// "most moves are refused".
		maxLoad := h.TotalWeight * limit / 3
		feasible = func(v hypergraph.VertexID, from, to int32, loads []int) bool {
			return loads[to]+h.Vertices[v].Weight <= maxLoad
		}
	}
	r := Over(h, a, feasible)
	gc := r.Cache()

	check := func(step string) {
		t.Helper()
		if err := gc.Check(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if &gc.Parts()[0] != &a.Parts[0] {
			t.Fatalf("%s: the cache no longer writes through to the assignment", step)
		}
		if want := hypergraph.PartLoads(h, a); !slices.Equal(gc.Loads(), want) {
			t.Fatalf("%s: loads %v, recounted %v", step, gc.Loads(), want)
		}
	}
	singleMove := func(step string, v hypergraph.VertexID, to int32) {
		t.Helper()
		if to == gc.Part(v) {
			return
		}
		before, predicted := weightedCut(h, a.Parts), gc.Gain(v, to)
		gc.Move(v, to)
		if after := weightedCut(h, a.Parts); before-after != predicted {
			t.Fatalf("%s: Gain(%d→%d) = %d but the cut went %d → %d", step, v, to, predicted, before, after)
		}
	}
	check("reset")

	for step := 0; step < 64 && !s.dry(); step++ {
		switch s.next() % 4 {
		case 0: // refine a pair
			p, q := s.pair(k)
			maxPasses := s.next() % 3
			orig := slices.Clone(a.Parts)
			before := slices.Clone(orig)
			cutBefore := weightedCut(h, before)
			want := referenceRefinePair(h, before, k, p, q, feasible, maxPasses)
			got := r.RefinePair(p, q, maxPasses)
			if got != want || !slices.Equal(a.Parts, before) {
				t.Fatalf("refine(%d,%d): %+v parts %v, reference %+v parts %v", p, q, got, a.Parts, want, before)
			}
			for v, was := range orig {
				if now := a.Parts[v]; now != was && (was != p && was != q || now != p && now != q) {
					t.Fatalf("refine(%d,%d): vertex %d went %d → %d", p, q, v, was, now)
				}
			}
			if cut := weightedCut(h, a.Parts); cut != cutBefore-got.GainTotal {
				t.Fatalf("refine(%d,%d): cut %d → %d but GainTotal %d", p, q, cutBefore, cut, got.GainTotal)
			}
			if got.GainTotal > 0 {
				refined++
			}
			check("refine")
		case 1: // probe a pair: one pass, read the gain, undo
			p, q := s.pair(k)
			before := slices.Clone(a.Parts)
			g := r.ProbePair(p, q)
			if !slices.Equal(a.Parts, before) {
				t.Fatalf("probe(%d,%d) changed the assignment: %v → %v", p, q, before, a.Parts)
			}
			if want := referenceRefinePair(h, before, k, p, q, feasible, 1).GainTotal; g != want {
				t.Fatalf("probe(%d,%d) = %d, a one-pass refinement gains %d", p, q, g, want)
			}
			if g > 0 {
				probed++
			}
			check("probe")
		case 2: // one move, guard ignored
			singleMove("move", hypergraph.VertexID(s.next()%len(h.Vertices)), int32(s.next()%k))
			check("move")
		case 3: // the load redistribution's move: least cut damage, heaviest → lightest block
			loads := gc.Loads()
			src, dst := int32(0), int32(0)
			for b := range loads {
				if loads[b] > loads[src] {
					src = int32(b)
				}
				if loads[b] < loads[dst] {
					dst = int32(b)
				}
			}
			best := hypergraph.NoVertex
			for vi, part := range gc.Parts() {
				v := hypergraph.VertexID(vi)
				if part == src && src != dst && (best == hypergraph.NoVertex || gc.Gain(v, dst) > gc.Gain(best, dst)) {
					best = v
				}
			}
			if best != hypergraph.NoVertex {
				singleMove("rebalance", best, dst)
			}
			check("rebalance")
		}
	}
	return refined, probed
}

// FuzzPairRefine searches for a hypergraph, assignment and schedule of
// {refine pair, probe pair, single move, redistribution move} on which
// the long-lived Refiner disagrees with the from-scratch reference pass,
// mispredicts a gain, touches a vertex outside the pair, leaks a probe
// into the assignment, or lets the cache drift from a recount.
func FuzzPairRefine(f *testing.F) {
	addRandomSeeds(f, 1)
	f.Fuzz(func(t *testing.T, data []byte) { drivePairRefine(t, data) })
}

// TestPairRefineSchedules drives the fuzz body over seeded random inputs
// on every plain `go test`, and requires that they exercise what the body
// checks: refinements that keep a gain and probes that find one.
func TestPairRefineSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var refined, probed int
	for i := 0; i < 300; i++ {
		b := make([]byte, 100+rng.Intn(400))
		rng.Read(b)
		r, p := drivePairRefine(t, b)
		refined += r
		probed += p
	}
	t.Logf("300 schedules: %d gainful refinements, %d gainful probes", refined, probed)
	if refined < 100 || probed < 100 {
		t.Errorf("schedules too tame: %d gainful refinements, %d gainful probes", refined, probed)
	}
}
