package fm

import "repro/internal/hypergraph"

// Result summarizes one RefinePair call.
type Result struct {
	Passes    int // passes actually run
	Moves     int // net vertex moves kept after roll-back
	GainTotal int // total cut reduction achieved
}

// RefinePair is Over(h, a, feasible).RefinePair(p, q, maxPasses): one
// refinement on a throw-away refiner. Callers that refine the same view
// more than once keep the Refiner instead.
func RefinePair(h *hypergraph.H, a *hypergraph.Assignment, p, q int32, feasible Feasible, maxPasses int) Result {
	return Over(h, a, feasible).RefinePair(p, q, maxPasses)
}

// RefinePair runs FM passes moving vertices between blocks p and q until
// a pass yields no improvement, or maxPasses is reached (0 → 16).
// Vertices in other blocks are fixed. It returns the total cut-size
// reduction.
//
// Each pass follows the classic algorithm: all vertices of p∪q start
// free; the best-gain feasible move is applied and the vertex locked;
// after all moves, the pass is rolled back to the prefix with the best
// cumulative cut. "No free vertex or no gain" (paper fig. 2) ends the
// refinement.
func (r *Refiner) RefinePair(p, q int32, maxPasses int) Result {
	if maxPasses <= 0 {
		maxPasses = 16
	}
	var res Result
	for pass := 0; pass < maxPasses; pass++ {
		gain := r.pairPass(p, q)
		res.Passes++
		if gain <= 0 {
			break
		}
		res.GainTotal += gain
		res.Moves += len(r.moves)
	}
	return res
}

// ProbePair returns the cut reduction one pass between p and q would
// achieve, leaving the assignment and the cache exactly as they were:
// the pass runs on the live cache and is then undone.
func (r *Refiner) ProbePair(p, q int32) int {
	gain := r.pairPass(p, q)
	r.undo(0)
	return gain
}

// RefineAllPairs sweeps RefinePair (at its default pass bound) over every
// pair of blocks in ascending (p, q) order until a full sweep yields no
// gain (at most 8 sweeps).
func (r *Refiner) RefineAllPairs() {
	k := int32(r.gc.k)
	for sweep := 0; sweep < 8; sweep++ {
		gain := 0
		for p := int32(0); p < k; p++ {
			for q := p + 1; q < k; q++ {
				gain += r.RefinePair(p, q, 0).GainTotal
			}
		}
		if gain == 0 {
			break
		}
	}
}

// pairPass executes one FM pass between p and q and rolls back to the
// best prefix, which it leaves in the move log. It returns the kept gain.
func (r *Refiner) pairPass(p, q int32) int {
	gc, d := r.gc, r.gc.d
	other := func(part int32) int32 {
		if part == p {
			return q
		}
		return p
	}
	r.begin()
	for vi, part := range gc.parts {
		v := hypergraph.VertexID(vi)
		if (part == p || part == q) && d.Active(v) {
			r.buckets.insert(v, gc.Gain(v, other(part)))
			r.touched = append(r.touched, v)
		}
	}
	accept := func(v hypergraph.VertexID) bool {
		from := gc.parts[v]
		return r.allowed(v, from, other(from))
	}
	cum, bestCum, bestLen := 0, 0, 0
	for {
		v, g := r.buckets.popBest(accept)
		if v == hypergraph.NoVertex {
			break // no free vertex, or no feasible move remains
		}
		r.apply(v, other(gc.parts[v]))
		cum += g
		// Strict: the shortest best prefix, so a pass that only shuffles
		// zero-gain moves keeps nothing and ends the refinement.
		if cum > bestCum {
			bestCum, bestLen = cum, len(r.moves)
		}
		// Refresh the keys of the free pair vertices on v's nets.
		for _, e := range d.Incident(v) {
			for _, n := range d.Pins(e) {
				if n == v || r.locked[n] == r.epoch {
					continue
				}
				if pt := gc.parts[n]; pt == p || pt == q {
					r.buckets.update(n, gc.Gain(n, other(pt)))
				}
			}
		}
	}
	r.undo(bestLen)
	r.drain()
	return bestCum
}
