package fm

import (
	"sort"
	"sync"

	"repro/internal/hypergraph"
)

// This file is the n-level engine's search policy over the Refiner:
// gain-bucket localized searches seeded at freshly uncontracted vertex
// pairs, plus deterministic parallel global rounds that batch independent
// positive-gain moves. Unlike the pair pass, a vertex may go to any block
// (its best feasible target), only the seeds' neighbourhood is queued,
// and zero-gain plateau moves are kept. Both look only at border vertices
// (GainCache.border): an interior vertex gains −(its weighted degree) ≤ 0
// by any move, and the plateau rule would otherwise carry whole uncut nets
// to another block for nothing.

func (r *Refiner) bestOf(v hypergraph.VertexID) (int32, int, bool) {
	return r.gc.BestMove(v, r.allowed)
}

// activate inserts v into the gain buckets keyed by its best feasible
// gain, if it is on the border, has a feasible target and is neither
// locked this epoch nor queued.
func (r *Refiner) activate(v hypergraph.VertexID) {
	if r.locked[v] == r.epoch || r.buckets.inList[v] || !r.gc.border(v) {
		return
	}
	if _, g, ok := r.bestOf(v); ok {
		r.buckets.insert(v, g)
		r.touched = append(r.touched, v)
	}
}

// LocalSearch runs one localized FM search seeded at the given vertices
// (typically the two endpoints of a just-undone contraction). It
// hill-climbs with a stall limit and rolls back to the best positive
// prefix. Returns the cut improvement kept (≥ 0).
func (r *Refiner) LocalSearch(seeds ...hypergraph.VertexID) int {
	r.begin()
	for _, s := range seeds {
		if r.gc.d.Active(s) {
			r.activate(s)
		}
	}
	cum, bestCum, bestLen := 0, 0, 0
	for {
		v, key := r.buckets.popBest(func(v hypergraph.VertexID) bool {
			return r.locked[v] != r.epoch
		})
		if v == hypergraph.NoVertex {
			break
		}
		t, g, ok := r.bestOf(v)
		if !ok {
			continue // no longer has a feasible target; drop
		}
		if g != key {
			r.buckets.insert(v, g) // stale key: requeue with the fresh gain
			continue
		}
		r.apply(v, t)
		cum += g
		// ≥ keeps the longest best prefix: zero-gain plateau moves
		// survive the rollback, giving later searches fresh terrain.
		if cum >= bestCum {
			bestCum, bestLen = cum, len(r.moves)
		}
		if len(r.moves)-bestLen > r.StallLimit {
			break
		}
		// Neighborhood expansion + key refresh for pins whose gains the
		// move changed.
		for _, e := range r.gc.d.Incident(v) {
			for _, p := range r.gc.d.Pins(e) {
				if p == v || r.locked[p] == r.epoch {
					continue
				}
				if r.buckets.inList[p] {
					if _, g2, ok2 := r.bestOf(p); ok2 {
						r.buckets.update(p, g2)
					} else {
						r.buckets.remove(p)
					}
				} else {
					r.activate(p)
				}
			}
		}
	}
	r.undo(bestLen)
	r.drain()
	return bestCum
}

type candidate struct {
	v    hypergraph.VertexID
	gain int
}

// GlobalRound batches independent positive-gain moves the way the GPU
// partitioner does: a parallel read-only scan proposes the best feasible
// move per active border vertex (no other has a positive gain), proposals
// are ordered by (gain desc, vertex ID asc) — a fixed priority independent
// of the worker count — and applied serially with live revalidation
// against the cache. Returns the number of applied moves.
func (r *Refiner) GlobalRound(workers int) int {
	d := r.gc.d
	n := d.NumVertices()
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	chunks := make([][]candidate, workers)
	var wg sync.WaitGroup
	per := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var out []candidate
			for vi := lo; vi < hi; vi++ {
				v := hypergraph.VertexID(vi)
				if !d.Active(v) || !r.gc.border(v) {
					continue
				}
				if _, g, ok := r.bestOf(v); ok && g > 0 {
					out = append(out, candidate{v: v, gain: g})
				}
			}
			chunks[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	var cands []candidate
	for _, c := range chunks {
		cands = append(cands, c...)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		return cands[i].v < cands[j].v
	})
	applied := 0
	for _, c := range cands {
		// Earlier applications may have changed this vertex's gains:
		// revalidate against the live cache before moving.
		if t, g, ok := r.bestOf(c.v); ok && g > 0 {
			r.gc.Move(c.v, t)
			applied++
		}
	}
	return applied
}

// GlobalRounds runs GlobalRound until a fixpoint or maxRounds, returning
// the total number of applied moves.
func (r *Refiner) GlobalRounds(workers, maxRounds int) int {
	total := 0
	for round := 0; round < maxRounds; round++ {
		n := r.GlobalRound(workers)
		total += n
		if n == 0 {
			break
		}
	}
	return total
}
