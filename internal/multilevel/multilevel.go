package multilevel

import (
	"fmt"
	"math/rand"

	"repro/internal/elab"
	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Options configures the multilevel partitioner.
type Options struct {
	K int
	// B is the balance factor in percent, interpreted exactly as the
	// paper's formula 1 so the comparison grids match.
	B float64
	// CoarsestSize is the vertex count at which coarsening stops
	// (default 30·K).
	CoarsestSize int
	// Seed controls matching and initial-partition randomness.
	Seed int64
	// MaxPasses bounds FM passes per refinement round (0 → default).
	MaxPasses int
	// Restarts runs the initial partitioning this many times at the
	// coarsest level and keeps the best (default 4).
	Restarts int
	// VCycles repeats partition-respecting coarsening plus refinement
	// this many extra times (hMetis's V-cycles). 0 disables.
	VCycles int
	// RefineAbove, when positive, skips refinement at levels finer than
	// this vertex count: the result is a partition at CLUSTER granularity
	// (the bottom-up clustering approach of Karypis et al. and Dutt &
	// Deng the paper cites), projected to the gates without fine-grained
	// FM. Used by the clustering-vs-hierarchy study.
	RefineAbove int
	// Workers bounds parallelism in PartitionN (0 → GOMAXPROCS, 1 →
	// sequential). The result is identical for every Workers value.
	// Ignored by the flat Partition.
	Workers int
	// Obs, when enabled, records n-level phase spans (coarsen, initial
	// partition, refine) on the partition trace track. Nil disables.
	// Ignored by the flat Partition.
	Obs *obs.Observer
}

// Result is the outcome of a multilevel run.
type Result struct {
	Assignment *hypergraph.Assignment // on the input (finest) hypergraph
	Cut        int
	Loads      []int
	Balanced   bool
	Levels     int // coarsening levels (flat) or contraction rounds (n-level)
	GateParts  []int32
	Restart    int // index of the winning initial-partition restart (n-level)
}

// Partition runs the multilevel algorithm on hypergraph h. As in the
// paper's comparison, callers pass the FLAT hypergraph
// (hypergraph.BuildFlat), but any hypergraph works.
func Partition(h *hypergraph.H, opts Options) (*Result, error) {
	if opts.K < 2 {
		return nil, fmt.Errorf("multilevel: K must be >= 2, got %d", opts.K)
	}
	if opts.B <= 0 {
		return nil, fmt.Errorf("multilevel: B must be positive, got %g", opts.B)
	}
	if opts.CoarsestSize == 0 {
		opts.CoarsestSize = 30 * opts.K
	}
	if opts.Restarts == 0 {
		opts.Restarts = 4
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	levels := coarsen(h, opts.CoarsestSize, rng)
	coarsest := levels[len(levels)-1].h

	// Initial partitioning at the coarsest level: best of several
	// region-growing runs, each polished by pairwise FM.
	best := initialPartition(coarsest, opts, rng)
	for r := 1; r < opts.Restarts; r++ {
		cand := initialPartition(coarsest, opts, rng)
		if better(coarsest, cand, best, opts) {
			best = cand
		}
	}
	a := best

	// Uncoarsening with refinement at every level.
	a = uncoarsen(levels, a, opts)

	// Optional V-cycles: re-coarsen respecting the partition, refine on
	// the way back up. Keep a cycle's result only if it improves the cut.
	for v := 0; v < opts.VCycles; v++ {
		vLevels := coarsenRespecting(h, a.Parts, opts.CoarsestSize, rng)
		if len(vLevels) < 2 {
			break
		}
		// Project the assignment to the coarsest level (exact: merges
		// never cross partitions).
		cand := a
		for li := 1; li < len(vLevels); li++ {
			proj := hypergraph.NewAssignment(vLevels[li].h, opts.K)
			for vi := range vLevels[li-1].h.Vertices {
				proj.Parts[vLevels[li].fineToCoarse[vi]] = cand.Parts[vi]
			}
			cand = proj
		}
		refineAllPairs(vLevels[len(vLevels)-1].h, cand, opts)
		cand = uncoarsen(vLevels, cand, opts)
		if hypergraph.CutSize(h, cand) < hypergraph.CutSize(h, a) {
			a = cand
		}
	}

	res := &Result{
		Assignment: a,
		Cut:        hypergraph.CutSize(h, a),
		Loads:      hypergraph.PartLoads(h, a),
		Levels:     len(levels),
	}
	res.Balanced = partition.NewConstraint(h, opts.K, opts.B).Satisfied(res.Loads)
	res.GateParts = make([]int32, len(h.GateVertex))
	for gi, v := range h.GateVertex {
		res.GateParts[gi] = a.Parts[v]
	}
	return res, nil
}

// PartitionFlat is the paper's baseline configuration: flatten the design
// and run the multilevel algorithm on the gate-level hypergraph.
func PartitionFlat(d *elab.Design, opts Options) (*hypergraph.H, *Result, error) {
	h, err := hypergraph.BuildFlat(d)
	if err != nil {
		return nil, nil, err
	}
	res, err := Partition(h, opts)
	return h, res, err
}

// uncoarsen projects the assignment from the coarsest level of `levels`
// back to the finest, refining all pairs at every level.
func uncoarsen(levels []level, a *hypergraph.Assignment, opts Options) *hypergraph.Assignment {
	for li := len(levels) - 1; li >= 1; li-- {
		fine := levels[li-1].h
		proj := hypergraph.NewAssignment(fine, opts.K)
		for vi := range fine.Vertices {
			proj.Parts[vi] = a.Parts[levels[li].fineToCoarse[vi]]
		}
		a = proj
		if opts.RefineAbove == 0 || fine.NumVertices() <= opts.RefineAbove {
			refineAllPairs(fine, a, opts)
		}
	}
	if len(levels) == 1 {
		refineAllPairs(levels[0].h, a, opts)
	}
	return a
}

// initialPartition grows k regions from random seeds over the coarsest
// hypergraph, then refines all pairs once.
func initialPartition(h *hypergraph.H, opts Options, rng *rand.Rand) *hypergraph.Assignment {
	k := opts.K
	a := hypergraph.NewAssignment(h, k)
	n := h.NumVertices()
	targets := make([]int, k)
	for p := range targets {
		targets[p] = h.TotalWeight / k
	}
	loads := make([]int, k)

	// BFS region growing, one frontier per part, least-loaded part grows
	// next.
	frontiers := make([][]hypergraph.VertexID, k)
	perm := rng.Perm(n)
	seedIdx := 0
	nextSeed := func() (hypergraph.VertexID, bool) {
		for seedIdx < n {
			v := hypergraph.VertexID(perm[seedIdx])
			seedIdx++
			if a.Parts[v] < 0 {
				return v, true
			}
		}
		return hypergraph.NoVertex, false
	}
	for p := 0; p < k; p++ {
		if v, ok := nextSeed(); ok {
			frontiers[p] = append(frontiers[p], v)
		}
	}
	assigned := 0
	for assigned < n {
		// Grow the least-loaded part.
		p := 0
		for q := 1; q < k; q++ {
			if loads[q] < loads[p] {
				p = q
			}
		}
		// Pop a frontier vertex; reseed if empty.
		var v hypergraph.VertexID = hypergraph.NoVertex
		for len(frontiers[p]) > 0 {
			v = frontiers[p][0]
			frontiers[p] = frontiers[p][1:]
			if a.Parts[v] < 0 {
				break
			}
			v = hypergraph.NoVertex
		}
		if v == hypergraph.NoVertex {
			var ok bool
			v, ok = nextSeed()
			if !ok {
				break
			}
		}
		a.Parts[v] = int32(p)
		loads[p] += h.Vertices[v].Weight
		assigned++
		for _, e := range h.Vertices[v].Edges {
			for _, u := range h.Edges[e].Pins {
				if a.Parts[u] < 0 {
					frontiers[p] = append(frontiers[p], u)
				}
			}
		}
	}
	// Safety: sweep stragglers (disconnected vertices missed by reseeding).
	for vi := range h.Vertices {
		if a.Parts[vi] < 0 {
			p := 0
			for q := 1; q < k; q++ {
				if loads[q] < loads[p] {
					p = q
				}
			}
			a.Parts[vi] = int32(p)
			loads[p] += h.Vertices[vi].Weight
		}
	}
	refineAllPairs(h, a, opts)
	return a
}

// refineAllPairs runs pairwise FM over every pair of parts until a full
// sweep yields no gain, on one refiner built for this level's view.
func refineAllPairs(h *hypergraph.H, a *hypergraph.Assignment, opts Options) {
	cons := partition.NewConstraint(h, opts.K, opts.B)
	fm.Over(h, a, cons.Feasible(h)).RefineAllPairs(opts.MaxPasses)
}

// better compares two candidate assignments: prefer balanced, then lower
// cut.
func better(h *hypergraph.H, cand, best *hypergraph.Assignment, opts Options) bool {
	cons := partition.NewConstraint(h, opts.K, opts.B)
	cb := cons.Satisfied(hypergraph.PartLoads(h, cand))
	bb := cons.Satisfied(hypergraph.PartLoads(h, best))
	if cb != bb {
		return cb
	}
	return hypergraph.CutSize(h, cand) < hypergraph.CutSize(h, best)
}
