package partition

import (
	"fmt"
	"math/rand"

	"repro/internal/elab"
	"repro/internal/fm"
	"repro/internal/hypergraph"
)

// Recursive implements the recursive-bisection alternative the paper
// discusses and rejects (§3.1.1): bipartition the circuit, then recurse
// into each side until k parts exist. The paper's criticisms are both
// implemented faithfully so the comparison is fair:
//
//   - when k is not a power of two the recursion must produce uneven
//     splits (handled here by weighting each bisection by the number of
//     leaf parts on each side);
//   - later bisections operate on ever finer sub-hypergraphs with frozen
//     outside context, so cut reduction gets progressively harder.
//
// It runs on the same hierarchical hypergraph view as Multiway (no
// flattening loop; balance uses the same formula-1 window across the final
// k parts). The experiment harness compares it against the direct pairwise
// algorithm.
func Recursive(d *elab.Design, opts Options) (*Result, error) {
	if opts.K < 2 {
		return nil, fmt.Errorf("partition: K must be >= 2, got %d", opts.K)
	}
	if err := CheckB(opts.B); err != nil {
		return nil, fmt.Errorf("partition: B %w", err)
	}
	builder := hypergraph.NewBuilder(d)
	builder.GateWeights = opts.GateWeights
	h, err := builder.Build()
	if err != nil {
		return nil, err
	}
	for depth := 1; h.NumVertices() < opts.K && depth <= maxPreOpenDepth; depth++ {
		builder.OpenToDepth(depth + 1)
		h, err = builder.Build()
		if err != nil {
			return nil, err
		}
	}

	a := hypergraph.NewAssignment(h, opts.K)
	// Everything starts in part 0; bisect ranges of final part IDs.
	for i := range a.Parts {
		a.Parts[i] = 0
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	// One refiner for the whole recursion: every split of the same view
	// moves through its gain cache and swaps in its own window.
	ref := fm.Over(h, a, nil)
	if err := bisect(h, ref, 0, opts.K, opts, rng); err != nil {
		return nil, err
	}

	cons := NewConstraint(h, opts.K, opts.B)
	// A final repair pass: the recursion balances each split locally,
	// which can still leave end-to-end violations.
	rebalance(h, ref.Cache(), cons)

	res := &Result{H: h, Assignment: a, Constraint: cons}
	res.Cut = hypergraph.CutSize(h, a)
	res.Loads = hypergraph.PartLoads(h, a)
	res.Balanced = cons.Satisfied(res.Loads)
	res.GateParts = GatePartsOf(h, a)
	return res, nil
}

// bisect splits the vertices currently in part `lo` into parts covering
// [lo, lo+n) by recursive bisection. n1 = floor(n/2) leaf parts stay in
// lo's half; the rest move to part lo+n1.
func bisect(h *hypergraph.H, ref *fm.Refiner, lo int32, n int, opts Options, rng *rand.Rand) error {
	if n <= 1 {
		return nil
	}
	n1 := n / 2
	n2 := n - n1
	hi := lo + int32(n1)

	// Region weight and the target share for the hi side.
	region := make([]hypergraph.VertexID, 0)
	total := 0
	gc := ref.Cache()
	for vi, part := range gc.Parts() {
		if part == lo {
			region = append(region, hypergraph.VertexID(vi))
			total += h.Vertices[vi].Weight
		}
	}
	if len(region) < 2 {
		return fmt.Errorf("partition: recursive bisection ran out of vertices at part %d", lo)
	}
	want := total * n2 / n

	// Initial split: order the region by a cone-informed key (vertex ID
	// follows instance order, which clusters related modules) with a
	// random rotation, then take a prefix of weight `want` for hi.
	offset := rng.Intn(len(region))
	moved := 0
	for i := 0; i < len(region) && moved < want; i++ {
		v := region[(i+offset)%len(region)]
		gc.Move(v, hi)
		moved += h.Vertices[v].Weight
	}

	// FM refinement between the two halves, balance window scaled to the
	// halves' leaf-part counts.
	loTarget := total * n1 / n
	slack := float64(total) * opts.B / 100.0
	feasible := func(v hypergraph.VertexID, from, to int32, loads []int) bool {
		w := h.Vertices[v].Weight
		newFrom, newTo := loads[from]-w, loads[to]+w
		boundFor := func(part int32, l int) bool {
			target := loTarget
			if part == hi {
				target = total - loTarget
			}
			return float64(l) >= float64(target)-slack && float64(l) <= float64(target)+slack
		}
		if boundFor(from, newFrom) && boundFor(to, newTo) {
			return true
		}
		// Allow violation-reducing moves so bad initial splits repair.
		dev := func(part int32, l int) float64 {
			target := loTarget
			if part == hi {
				target = total - loTarget
			}
			d := float64(l) - float64(target)
			if d < 0 {
				d = -d
			}
			return d
		}
		before := dev(from, loads[from]) + dev(to, loads[to])
		after := dev(from, newFrom) + dev(to, newTo)
		return after < before
	}
	ref.SetFeasible(feasible)
	ref.RefinePair(lo, hi, 0)

	if err := bisect(h, ref, lo, n1, opts, rng); err != nil {
		return err
	}
	return bisect(h, ref, hi, n2, opts, rng)
}
