package fm

import (
	"fmt"

	"repro/internal/hypergraph"
)

// GainCache maintains, for every active vertex of a dynamic hypergraph,
// the cut-metric gain of moving it to every target block — updated
// incrementally in O(affected pins) per move. It is the only code in the
// repository that evaluates "what does moving v to block t gain": every
// search policy of the Refiner, the pairing probe and the greedy load
// redistribution read it ("n-Level Hypergraph Partitioning",
// arXiv 1505.00693).
//
// Decomposition (Φ(e,t) = number of active pins of e in block t, s =
// active size of e; edges with s < 2 carry no cut and are excluded from
// gain terms, though Φ is maintained for them so they can re-enter):
//
//	benefit[v][t] = Σ_{e ∋ v, s ≥ 2} w(e)·[Φ(e,t) == s−1]
//	penalty[v]    = Σ_{e ∋ v, s ≥ 2} w(e)·[Φ(e,part[v]) == s]
//	Gain(v → t)   = benefit[v][t] − penalty[v]          (t ≠ part[v])
//
// benefit is independent of v's own block, which is what makes the move
// update local: moving v from f to t only changes terms of edges incident
// to v whose Φ(·,f) or Φ(·,t) crosses one of the thresholds s, s−1, s−2.
type GainCache struct {
	d *hypergraph.Dyn
	k int

	parts   []int32 // by finest VertexID; inactive vertices inherit on uncontract
	phi     []int32 // [e*k + t] active pins of e in block t
	benefit []int32 // [v*k + t]
	penalty []int32 // [v]
	loads   []int   // active vertex weight per block
}

// NewGainCache allocates a cache for d with k blocks. Call Reset to
// initialize it from an assignment of the currently active vertices.
func NewGainCache(d *hypergraph.Dyn, k int) *GainCache {
	return newGainCache(d, k, make([]int32, d.NumVertices()))
}

// newGainCache is NewGainCache with the block array supplied by the
// caller (Over hands it the assignment it writes through to).
func newGainCache(d *hypergraph.Dyn, k int, parts []int32) *GainCache {
	return &GainCache{
		d:       d,
		k:       k,
		parts:   parts,
		phi:     make([]int32, d.NumEdges()*k),
		benefit: make([]int32, d.NumVertices()*k),
		penalty: make([]int32, d.NumVertices()),
		loads:   make([]int, k),
	}
}

// K returns the number of blocks.
func (gc *GainCache) K() int { return gc.k }

// Part returns v's current block.
func (gc *GainCache) Part(v hypergraph.VertexID) int32 { return gc.parts[v] }

// Parts returns the live block assignment indexed by finest VertexID.
// The slice aliases internal state — copy before mutating.
func (gc *GainCache) Parts() []int32 { return gc.parts }

// Loads returns the live per-block active vertex weight (aliases internal
// state).
func (gc *GainCache) Loads() []int { return gc.loads }

// Reset initializes the cache from parts (indexed by finest VertexID;
// only active vertices are consulted). O(pins·k).
func (gc *GainCache) Reset(parts []int32) {
	copy(gc.parts, parts)
	for i := range gc.phi {
		gc.phi[i] = 0
	}
	for i := range gc.benefit {
		gc.benefit[i] = 0
	}
	for i := range gc.penalty {
		gc.penalty[i] = 0
	}
	for i := range gc.loads {
		gc.loads[i] = 0
	}
	d := gc.d
	for e := 0; e < d.NumEdges(); e++ {
		for _, p := range d.Pins(hypergraph.EdgeID(e)) {
			gc.phi[e*gc.k+int(gc.parts[p])]++
		}
	}
	for vi := 0; vi < d.NumVertices(); vi++ {
		v := hypergraph.VertexID(vi)
		if !d.Active(v) {
			continue
		}
		gc.loads[gc.parts[v]] += d.Weight(v)
		for _, e := range d.Incident(v) {
			s := int32(d.EdgeSize(e))
			if s < 2 {
				continue
			}
			w := int32(d.EdgeWeight(e))
			row := int(e) * gc.k
			for t := 0; t < gc.k; t++ {
				if gc.phi[row+t] == s-1 {
					gc.benefit[vi*gc.k+t] += w
				}
			}
			if gc.phi[row+int(gc.parts[v])] == s {
				gc.penalty[vi] += w
			}
		}
	}
}

// Gain returns the cut-size reduction of moving v to block t (negative
// when the move worsens the cut). t must differ from v's block.
func (gc *GainCache) Gain(v hypergraph.VertexID, t int32) int {
	return int(gc.benefit[int(v)*gc.k+int(t)] - gc.penalty[v])
}

// BestMove returns the target block maximizing Gain(v→t) among feasible
// targets (ties broken toward the smaller block index, for determinism)
// and that gain. ok is false when no target is feasible.
func (gc *GainCache) BestMove(v hypergraph.VertexID, feasible func(v hypergraph.VertexID, from, to int32) bool) (best int32, gain int, ok bool) {
	from := gc.parts[v]
	row := int(v) * gc.k
	pen := gc.penalty[v]
	for t := int32(0); t < int32(gc.k); t++ {
		if t == from {
			continue
		}
		g := int(gc.benefit[row+int(t)] - pen)
		if (!ok || g > gain) && feasible(v, from, t) {
			best, gain, ok = t, g, true
		}
	}
	return best, gain, ok
}

// Move relocates v to block `to`, updating Φ, benefit, penalty and loads
// of all affected pins in O(Σ_{e ∋ v} |e|).
func (gc *GainCache) Move(v hypergraph.VertexID, to int32) {
	from := gc.parts[v]
	if from == to {
		return
	}
	d := gc.d
	for _, e := range d.Incident(v) {
		row := int(e) * gc.k
		a := gc.phi[row+int(from)]
		b := gc.phi[row+int(to)]
		gc.phi[row+int(from)] = a - 1
		gc.phi[row+int(to)] = b + 1
		s := int32(d.EdgeSize(e))
		if s < 2 {
			continue
		}
		w := int32(d.EdgeWeight(e))
		pins := d.Pins(e)
		switch a {
		case s: // edge was internal to `from`: it becomes cut
			for _, p := range pins {
				gc.benefit[int(p)*gc.k+int(from)] += w
				if p != v {
					gc.penalty[p] -= w
				}
			}
		case s - 1: // `from` loses its all-but-one status
			for _, p := range pins {
				gc.benefit[int(p)*gc.k+int(from)] -= w
			}
		}
		switch b {
		case s - 1: // edge becomes internal to `to`: it leaves the cut
			for _, p := range pins {
				gc.benefit[int(p)*gc.k+int(to)] -= w
				if p != v {
					gc.penalty[p] += w
				}
			}
		case s - 2: // `to` reaches all-but-one status
			for _, p := range pins {
				gc.benefit[int(p)*gc.k+int(to)] += w
			}
		}
	}
	gc.loads[from] -= d.Weight(v)
	gc.loads[to] += d.Weight(v)
	gc.parts[v] = to
	// v's penalty depends on its own block: recompute it directly.
	pen := int32(0)
	for _, e := range d.Incident(v) {
		s := int32(d.EdgeSize(e))
		if s < 2 {
			continue
		}
		if gc.phi[int(e)*gc.k+int(to)] == s {
			pen += int32(d.EdgeWeight(e))
		}
	}
	gc.penalty[v] = pen
}

// OnUncontract updates the cache after d.Uncontract() returned m: vertex
// m.V is active again in m.U's block. Case-2 edges transfer their terms
// from U to V (Φ unchanged); case-1 edges grow by one pin in V's block.
// Cost is O(Σ affected pins + |edges|·k).
func (gc *GainCache) OnUncontract(m hypergraph.Memento) {
	d := gc.d
	u, v := m.U, m.V
	p := gc.parts[u]
	gc.parts[v] = p
	// loads need no update: u shed exactly v's weight into the same block.
	for _, e := range m.Case2 {
		s := int32(d.EdgeSize(e))
		if s < 2 {
			continue
		}
		w := int32(d.EdgeWeight(e))
		row := int(e) * gc.k
		for t := 0; t < gc.k; t++ {
			if gc.phi[row+t] == s-1 {
				gc.benefit[int(u)*gc.k+t] -= w
				gc.benefit[int(v)*gc.k+t] += w
			}
		}
		if gc.phi[row+int(p)] == s {
			gc.penalty[u] -= w
			gc.penalty[v] += w
		}
	}
	for _, e := range m.Case1 {
		sn := int32(d.EdgeSize(e)) // new size, after restore
		so := sn - 1
		w := int32(d.EdgeWeight(e))
		row := int(e) * gc.k
		if so >= 2 {
			// Threshold crossings for the surviving pins: with s: so→sn
			// and Φ(p): +1, the only condition that flips is
			// [Φ(t)==so−1] → [Φ(t)==sn−1] for t ≠ p (column p keeps its
			// truth value since Φ(p) and the threshold both rise by 1),
			// and penalties are unaffected (Φ(t)==so for t≠p would force
			// Φ(p)==0, impossible while u is a pin).
			for t := int32(0); t < int32(gc.k); t++ {
				if t != p && gc.phi[row+int(t)] == so-1 {
					for _, q := range d.Pins(e) {
						if q != v {
							gc.benefit[int(q)*gc.k+int(t)] -= w
						}
					}
				}
			}
		}
		gc.phi[row+int(p)]++
		if sn >= 2 {
			// Add v's own terms for e, and — when the edge just crossed
			// from size 1 to 2 — u's terms too (the edge contributed
			// nothing at size 1).
			for t := 0; t < gc.k; t++ {
				if gc.phi[row+t] == sn-1 {
					gc.benefit[int(v)*gc.k+t] += w
					if so == 1 {
						gc.benefit[int(u)*gc.k+t] += w
					}
				}
			}
			if gc.phi[row+int(p)] == sn {
				gc.penalty[v] += w
				if so == 1 {
					gc.penalty[u] += w
				}
			}
		}
	}
}

// CutSize returns the current cut (edge count) under the live assignment.
func (gc *GainCache) CutSize() int { return gc.d.CutSize(gc.parts) }

// WeightedCut returns the current weighted cut — the quantity the gains
// are denominated in (identical to CutSize when all edge weights are 1,
// as they are for circuit nets).
func (gc *GainCache) WeightedCut() int { return gc.d.WeightedCut(gc.parts) }

// Check recomputes everything from scratch and compares against the
// cached state; used by tests.
func (gc *GainCache) Check() error {
	ref := NewGainCache(gc.d, gc.k)
	ref.Reset(gc.parts)
	for i := range ref.phi {
		if ref.phi[i] != gc.phi[i] {
			return fmt.Errorf("gaincache: phi[e=%d t=%d] = %d, want %d", i/gc.k, i%gc.k, gc.phi[i], ref.phi[i])
		}
	}
	for vi := 0; vi < gc.d.NumVertices(); vi++ {
		if !gc.d.Active(hypergraph.VertexID(vi)) {
			continue
		}
		if ref.penalty[vi] != gc.penalty[vi] {
			return fmt.Errorf("gaincache: penalty[%d] = %d, want %d", vi, gc.penalty[vi], ref.penalty[vi])
		}
		for t := 0; t < gc.k; t++ {
			if ref.benefit[vi*gc.k+t] != gc.benefit[vi*gc.k+t] {
				return fmt.Errorf("gaincache: benefit[%d][%d] = %d, want %d",
					vi, t, gc.benefit[vi*gc.k+t], ref.benefit[vi*gc.k+t])
			}
		}
	}
	for t := range ref.loads {
		if ref.loads[t] != gc.loads[t] {
			return fmt.Errorf("gaincache: loads[%d] = %d, want %d", t, gc.loads[t], ref.loads[t])
		}
	}
	return nil
}
