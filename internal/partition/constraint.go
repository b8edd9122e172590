// Package partition implements the paper's contribution: the multiway
// design-driven partitioning algorithm for parallel gate-level Verilog
// simulation (Li & Tropper, ICPP 2008).
//
// The algorithm (paper fig. 2):
//
//  1. cone partitioning generates an initial k-way partition of the
//     hierarchical hypergraph (gates + module-instance super-gates);
//  2. pairs of partitions are chosen (random / exhaustive / cut-based /
//     gain-based) and FM-style vertex moves are run between the pair until
//     no free vertex or no gain remains;
//  3. if the load-balancing constraint (load·(1/k − b/100) ≤ load[i] ≤
//     load·(1/k + b/100)) cannot be met, the largest super-gate of an
//     over-loaded partition is flattened and iterative movement resumes on
//     the finer hypergraph;
//  4. pairing, movement and flattening repeat until no pairing
//     configuration remains, leaving a minimal cut that meets the balance
//     constraint.
package partition

import (
	"fmt"
	"math"

	"repro/internal/hypergraph"
)

// Constraint is the paper's load-balancing constraint (formula 1): with k
// partitions and balance factor b (in percent), every partition load must
// lie within total·(1/k ± b/100).
type Constraint struct {
	K     int
	B     float64 // balance factor in percent (the paper's b)
	Total int     // total vertex weight (gate count)
}

// NewConstraint builds the constraint for hypergraph h.
func NewConstraint(h *hypergraph.H, k int, b float64) Constraint {
	return Constraint{K: k, B: b, Total: h.TotalWeight}
}

// Bounds returns the inclusive [lo, hi] load window for one partition.
// The window endpoints are real numbers but loads are integer gate
// counts, so the lower bound rounds up and the upper bound rounds down —
// with an epsilon guard so that windows whose endpoints are mathematically
// integral are not narrowed by float noise in t·(1/k ± b/100).
func (c Constraint) Bounds() (lo, hi int) {
	t := float64(c.Total)
	lo = ceilEps(t * (1.0/float64(c.K) - c.B/100.0))
	if lo < 0 {
		lo = 0
	}
	hi = floorEps(t * (1.0/float64(c.K) + c.B/100.0))
	return lo, hi
}

// boundsEps is the relative slack treated as float noise when rounding
// window endpoints: a few orders of magnitude above the error of the two
// multiplications that produce them, and far below any meaningful load
// fraction.
const boundsEps = 1e-9

func ceilEps(x float64) int {
	return int(math.Ceil(x - boundsEps*math.Max(1, math.Abs(x))))
}

func floorEps(x float64) int {
	return int(math.Floor(x + boundsEps*math.Max(1, math.Abs(x))))
}

// Satisfied reports whether all loads meet the constraint.
func (c Constraint) Satisfied(loads []int) bool {
	lo, hi := c.Bounds()
	for _, l := range loads {
		if l < lo || l > hi {
			return false
		}
	}
	return true
}

// Violation returns the total amount by which loads fall outside the
// window (0 when satisfied) — the quantity iterative movement tries to
// shrink when the constraint is not yet met.
func (c Constraint) Violation(loads []int) int {
	lo, hi := c.Bounds()
	v := 0
	for _, l := range loads {
		if l < lo {
			v += lo - l
		} else if l > hi {
			v += l - hi
		}
	}
	return v
}

// feasibleIn reports whether moving weight w from block `from` to block
// `to` is allowed under the window [lo, hi]: it must not push the
// destination above hi or pull the source below lo — unless it strictly
// reduces the total violation (repair moves on unbalanced inputs). loads
// is the caller's live per-partition weight.
func feasibleIn(lo, hi, w int, from, to int32, loads []int) bool {
	newFrom := loads[from] - w
	newTo := loads[to] + w
	if newFrom >= lo && newTo <= hi {
		return true
	}
	// Allow strict violation-reducing repair moves.
	before := excess(loads[from], lo, hi) + excess(loads[to], lo, hi)
	after := excess(newFrom, lo, hi) + excess(newTo, lo, hi)
	return after < before
}

// Feasible returns an fm.Feasible-compatible move predicate over h's
// vertex weights (see feasibleIn). The window is computed here, once: a
// search asks the predicate for every candidate target of every vertex it
// looks at.
func (c Constraint) Feasible(h *hypergraph.H) func(v hypergraph.VertexID, from, to int32, loads []int) bool {
	lo, hi := c.Bounds()
	return func(v hypergraph.VertexID, from, to int32, loads []int) bool {
		return feasibleIn(lo, hi, h.Vertices[v].Weight, from, to, loads)
	}
}

// Oversized reports whether a single vertex of weight w cannot fit the
// window at all — no balanced assignment containing it in a shared block
// exists, which is what used to force the flattening fallback.
func (c Constraint) Oversized(w int) bool {
	_, hi := c.Bounds()
	return w > hi
}

// Aware is the vertex-weight-aware relaxation of the constraint
// ("Multilevel Hypergraph Partitioning with Vertex Weights Revisited",
// arXiv 2102.01378): blocks that host an individually-oversized
// super-gate are marked solo and exempted from the window, and the
// window is re-derived over the remaining blocks and remaining weight.
// With no solo blocks it degenerates to the plain Constraint.
type Aware struct {
	Solo []bool     // by block: true when the block holds one oversized vertex
	Rem  Constraint // window over the non-solo blocks
}

// Aware builds the vertex-weight-aware view given the solo-block mask and
// the total weight parked in solo blocks.
func (c Constraint) Aware(solo []bool, soloWeight int) Aware {
	nSolo := 0
	for _, s := range solo {
		if s {
			nSolo++
		}
	}
	rem := Constraint{K: c.K - nSolo, B: c.B, Total: c.Total - soloWeight}
	return Aware{Solo: solo, Rem: rem}
}

// Satisfied reports whether every non-solo block load lies in the
// re-derived window. Solo blocks are exempt by construction.
func (a Aware) Satisfied(loads []int) bool {
	if a.Rem.K <= 0 {
		return true
	}
	lo, hi := a.Rem.Bounds()
	for t, l := range loads {
		if a.solo(int32(t)) {
			continue
		}
		if l < lo || l > hi {
			return false
		}
	}
	return true
}

// Feasible returns the fm.Feasible-compatible move predicate over the
// vertex weights weight reports: moves into or out of solo blocks are
// rejected outright (an oversized super-gate sits alone), everything else
// follows the re-derived window, computed once, as Constraint.Feasible
// does.
func (a Aware) Feasible(weight func(hypergraph.VertexID) int) func(v hypergraph.VertexID, from, to int32, loads []int) bool {
	lo, hi := a.Rem.Bounds()
	return func(v hypergraph.VertexID, from, to int32, loads []int) bool {
		if a.solo(from) || a.solo(to) || a.Rem.K <= 0 {
			return false
		}
		return feasibleIn(lo, hi, weight(v), from, to, loads)
	}
}

func (a Aware) solo(b int32) bool { return int(b) < len(a.Solo) && a.Solo[b] }

func excess(l, lo, hi int) int {
	if l < lo {
		return lo - l
	}
	if l > hi {
		return l - hi
	}
	return 0
}

func (c Constraint) String() string {
	lo, hi := c.Bounds()
	return fmt.Sprintf("k=%d b=%.1f%% window=[%d,%d] of %d", c.K, c.B, lo, hi, c.Total)
}
