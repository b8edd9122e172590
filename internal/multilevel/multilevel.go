// Package multilevel implements the repository's multilevel hypergraph
// partitioners: the level-granularity one in the style of hMetis (Karypis,
// Aggarwal, Kumar & Shekhar, DAC 1997 / IEEE TVLSI 1999) — the baseline the
// paper compares against, applied as in the paper to the FLATTENED netlist
// so it cannot exploit the Verilog design hierarchy — and the n-level one
// ("n-Level Hypergraph Partitioning", arXiv 1505.00693).
//
// Both are one skeleton (run, nlevel.go): coarsen by contracting heavy-edge
// pairs on a hypergraph.Dyn, partition the coarsest view by greedy region
// growing (best of several restarts), then uncontract back to full
// resolution with the one fm.Refiner kept exact by GainCache.OnUncontract.
// They differ only in the refinement policy applied on the way up, and the
// entry point is the selection: Partition refines all block pairs once per
// coarsening round, PartitionN searches around every single uncontraction.
package multilevel

import (
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
	// Seed controls the initial-partition randomness (coarsening is
	// deterministic).
	Seed int64
	// Restarts runs the initial partitioning this many times at the
	// coarsest level and keeps the best (≤ 0 → 8).
	Restarts int
	// RefineAbove, when positive, makes Partition skip refinement at
	// levels finer than this vertex count: the result is a partition at
	// CLUSTER granularity (the bottom-up clustering approach of Karypis et
	// al. and Dutt & Deng the paper cites), projected to the gates without
	// fine-grained FM. Used by the clustering-vs-hierarchy study.
	RefineAbove int
	// Workers bounds parallelism in the coarsening scans, the restart pool
	// and PartitionN's global rounds (0 → GOMAXPROCS, 1 → sequential). The
	// result is identical for every Workers value.
	Workers int
	// Obs, when enabled, records the phase spans (coarsen, initial
	// partition, refine) on the partition trace track. Nil disables.
	Obs *obs.Observer
}

// defaultRestarts is how many initial partitions compete when
// Options.Restarts is unset. A restart repeats only the coarsest-level
// region growing (~CoarsestSize vertices), so it is cheap.
const defaultRestarts = 8

// Result is the outcome of a multilevel run.
type Result struct {
	Assignment *hypergraph.Assignment // on the input (finest) hypergraph
	Cut        int
	Loads      []int
	Balanced   bool
	Levels     int // coarsening (contraction) rounds
	GateParts  []int32
	Restart    int // index of the winning initial-partition restart
}

// Partition runs the level-granularity multilevel algorithm — the hMetis
// substitute — on hypergraph h: nothing happens per uncontraction, and at
// every coarsening-round boundary on the way up the pair pass sweeps all
// block pairs (Refiner.RefineAllPairs), as hMetis refines once per level.
// As in the paper's comparison, callers pass the FLAT hypergraph
// (hypergraph.BuildFlat), but any hypergraph works.
func Partition(h *hypergraph.H, opts Options) (*Result, error) {
	return run(h, opts, policy{name: "ml", refine: refineLevels})
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

// PartitionN runs the n-level multilevel algorithm on hypergraph h: a
// localized k-way FM search around every single uncontraction
// (Refiner.LocalSearch), a deterministic parallel global round per
// coarsening-round boundary, and a polish of global rounds at the coarsest
// and at full resolution.
func PartitionN(h *hypergraph.H, opts Options) (*Result, error) {
	return run(h, opts, policy{name: "nlevel", refine: refineNLevel})
}

// PartitionNFlat flattens the design and runs PartitionN on the gate-level
// hypergraph — the n-level counterpart of PartitionFlat.
func PartitionNFlat(des *elab.Design, opts Options) (*hypergraph.H, *Result, error) {
	h, err := hypergraph.BuildFlat(des)
	if err != nil {
		return nil, nil, err
	}
	res, err := PartitionN(h, opts)
	return h, res, err
}

// policy is the one part of the skeleton that varies: how the partition is
// refined on the way back up. refine is handed the ascent at the coarsest
// view with the winning initial partition loaded, must drive it to full
// resolution, and returns what it wants recorded on its refine span. opts
// arrive with their defaults resolved.
type policy struct {
	name   string // span prefix
	refine func(up *ascent, opts Options) []obs.Arg
}

// refineLevels is the level policy: one all-pairs sweep of the pair pass
// per coarsening round undone, none while the view is finer than
// RefineAbove. The coarsest view needs none — the initial partition was
// swept on its compact copy.
func refineLevels(up *ascent, opts Options) []obs.Arg {
	refined := 0
	for up.next(nil) {
		if opts.RefineAbove == 0 || up.d.NumActive() <= opts.RefineAbove {
			up.ref.RefineAllPairs()
			refined++
		}
	}
	return []obs.Arg{{Key: "levels_refined", Val: float64(refined)}}
}

// refineNLevel is the n-level policy: global rounds to a fixpoint on the
// coarsest view, a localized search around every popped pair, one global
// round per coarsening round undone, and a final polish at full
// resolution.
func refineNLevel(up *ascent, opts Options) []obs.Arg {
	globalMoves := up.ref.GlobalRounds(opts.Workers, 8)
	searches := 0
	for up.next(func(m hypergraph.Memento) {
		up.ref.LocalSearch(m.U, m.V)
		searches++
	}) {
		globalMoves += up.ref.GlobalRound(opts.Workers)
	}
	globalMoves += up.ref.GlobalRounds(opts.Workers, 8)
	return []obs.Arg{
		{Key: "local_searches", Val: float64(searches)},
		{Key: "global_moves", Val: float64(globalMoves)},
	}
}

// initialPartition grows k regions from random seeds over the coarsest
// hypergraph, then sweeps pairwise FM over all block pairs until a sweep
// yields no gain.
func initialPartition(h *hypergraph.H, opts Options, rng *rand.Rand) *hypergraph.Assignment {
	k := opts.K
	a := hypergraph.NewAssignment(h, k)
	n := h.NumVertices()
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
	cons := partition.NewConstraint(h, k, opts.B)
	fm.Over(h, a, cons.Feasible(h.Weight)).RefineAllPairs()
	return a
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
