package fm

import "repro/internal/hypergraph"

// Feasible decides whether moving vertex v from partition `from` to
// partition `to` is allowed (the load-balancing constraint, supplied by
// the caller). loads is the gain cache's live per-partition weight,
// updated after every tentative move. A nil Feasible allows every move.
type Feasible func(v hypergraph.VertexID, from, to int32, loads []int) bool

// stallLimit bounds how many non-improving moves a localized search
// tolerates past its best prefix before giving up.
const stallLimit = 8

// Refiner is the one FM engine of the repository: a gain cache plus the
// scratch every search over it needs — gain buckets, an epoch-stamped
// lock array and a move log for rolling back to the best prefix. Two
// search policies run on it, and neither computes a gain itself:
//
//   - the pair pass (RefinePair, ProbePair, RefineAllPairs; fm.go) —
//     the paper's iterative movement between two paired partitions, used
//     by the design-driven partitioner and the multilevel skeleton's
//     level policy (the flat baseline);
//   - the localized k-way search and the batched global rounds
//     (LocalSearch, GlobalRound; kway.go) — its n-level policy's.
//
// A Refiner lives as long as the hypergraph view it was built for: one
// per multilevel run (the view uncontracts under it, GainCache.OnUncontract
// keeping the gains exact), one per flattening step. Moves made through it
// (or through Cache().Move between searches) keep the gains exact, so
// nothing is rebuilt between calls.
type Refiner struct {
	gc       *GainCache
	feasible Feasible

	buckets *bucketList

	epoch   int64
	locked  []int64 // epoch in which the vertex was moved (FM lock)
	touched []hypergraph.VertexID

	moves []move
}

// move is one entry of the move log: v left block from.
type move struct {
	v    hypergraph.VertexID
	from int32
}

// NewRefiner builds a refiner over gc. feasible guards every move a
// search makes (nil allows all); it receives the cache's live loads.
func NewRefiner(gc *GainCache, feasible Feasible) *Refiner {
	d := gc.d
	maxDeg := 1
	for vi := 0; vi < d.NumVertices(); vi++ {
		v := hypergraph.VertexID(vi)
		if !d.Active(v) {
			continue
		}
		deg := 0
		for _, e := range d.Incident(v) {
			deg += d.EdgeWeight(e)
		}
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	// A gain is bounded by the weighted degree, and an uncontraction only
	// splits an incidence list, so the maximum observed now bounds every
	// future gain.
	return &Refiner{
		gc:       gc,
		feasible: feasible,
		buckets:  newBucketList(d.NumVertices(), maxDeg),
		locked:   make([]int64, d.NumVertices()),
	}
}

// Over builds the refiner for a plain hypergraph view: a never-contracted
// dynamic view of h and a gain cache initialized from a. The cache adopts
// a.Parts as its block array, so every move writes through to the
// caller's assignment; in return the caller must route its own moves
// through Cache().Move for as long as it keeps the refiner. O(pins·k) —
// build it once per view, not once per refinement call.
func Over(h *hypergraph.H, a *hypergraph.Assignment, feasible Feasible) *Refiner {
	gc := newGainCache(hypergraph.NewDyn(h), a.K, a.Parts)
	gc.Reset(a.Parts)
	return NewRefiner(gc, feasible)
}

// Cache returns the gain cache the refiner searches over: live gains,
// blocks and loads, and Move for single moves between searches.
func (r *Refiner) Cache() *GainCache { return r.gc }

// SetFeasible replaces the move guard (recursive bisection narrows the
// window at every split of the same view).
func (r *Refiner) SetFeasible(feasible Feasible) { r.feasible = feasible }

func (r *Refiner) allowed(v hypergraph.VertexID, from, to int32) bool {
	if r.feasible == nil {
		return true
	}
	return r.feasible(v, from, to, r.gc.loads)
}

// begin starts a search: a fresh lock epoch, an empty move log and an
// empty queue record.
func (r *Refiner) begin() {
	r.epoch++
	r.touched = r.touched[:0]
	r.moves = r.moves[:0]
}

// apply moves v to block `to`, locks it for this search and logs the move.
func (r *Refiner) apply(v hypergraph.VertexID, to int32) {
	r.locked[v] = r.epoch
	r.moves = append(r.moves, move{v: v, from: r.gc.parts[v]})
	r.gc.Move(v, to)
}

// undo rolls the move log back to its first n entries.
func (r *Refiner) undo(n int) {
	for i := len(r.moves) - 1; i >= n; i-- {
		r.gc.Move(r.moves[i].v, r.moves[i].from)
	}
	r.moves = r.moves[:n]
}

// drain empties the gain buckets of everything this search queued, so
// the next search starts clean.
func (r *Refiner) drain() {
	for _, v := range r.touched {
		r.buckets.remove(v)
	}
	r.buckets.maxGain = -r.buckets.offset - 1
}
