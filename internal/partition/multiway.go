package partition

import (
	"fmt"
	"math/rand"

	"repro/internal/cone"
	"repro/internal/elab"
	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/par"
)

// Options configures the multiway design-driven partitioner.
type Options struct {
	// K is the number of partitions (processors).
	K int
	// B is the load-balancing factor in percent (formula 1).
	B float64
	// Strategy selects the pairing criterion. The zero value is
	// PairRandom and nothing defaults it: the benchmark, vsim, presim and
	// the examples all pair at random; only cmd/vpart's -strategy flag
	// defaults to "gain".
	Strategy PairingStrategy
	// Seed drives the random pairing strategy.
	Seed int64
	// DisableFlattening turns off the flattening step (used by the
	// ablation study); balance may then be unachievable.
	DisableFlattening bool
	// GateWeights optionally weighs gates by simulation activity
	// (indexed by netlist.GateID); nil means unit weights. This is the
	// paper's future-work load metric, fed by pre-simulation event counts.
	GateWeights []int
	// Restarts is the number of independent runs of the pipeline; the
	// first uses the cone initial partition (the paper's choice), the
	// rest use random initial partitions, and the best balanced result
	// wins. Pairwise FM is a local search, so restarts buy the
	// hill-climbing the paper attributes to exhaustive pairing. Default 8.
	Restarts int
	// Workers bounds how many restarts run concurrently (0 → GOMAXPROCS,
	// 1 → sequential). The result is identical for every Workers value:
	// restart seeds are derived up front from Seed and the best restart is
	// selected in restart-index order.
	Workers int
	// Obs, when enabled, records partitioner phase spans (hypergraph
	// build, initial partition, refinement, flattening steps) on the
	// partition trace track. Nil disables.
	Obs *obs.Observer
}

// Result is the outcome of a Multiway run.
type Result struct {
	H          *hypergraph.H          // final (possibly partially flattened) view
	Assignment *hypergraph.Assignment // complete k-way assignment on H
	Cut        int                    // hyperedge cut of the final assignment
	Loads      []int                  // per-partition gate loads
	Balanced   bool                   // whether the constraint was met
	Constraint Constraint
	Flattened  int // super-gates flattened during the run
	Rounds     int // pairing rounds executed
	// GateParts maps every netlist gate to its partition — the interface
	// the simulators consume, independent of the hypergraph view.
	GateParts []int32
}

// Multiway runs the paper's multiway design-driven partitioning algorithm
// on the elaborated design: cone initial partitioning, pairwise iterative
// movement under the balance constraint, and super-gate flattening when
// balance cannot be met. Restarts > 1 repeats the pipeline from random
// initial partitions and keeps the best balanced result.
func Multiway(d *elab.Design, opts Options) (*Result, error) {
	if opts.K < 2 {
		return nil, fmt.Errorf("partition: K must be >= 2, got %d", opts.K)
	}
	if err := CheckB(opts.B); err != nil {
		return nil, fmt.Errorf("partition: B %w", err)
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 8
	}

	mwT0 := opts.Obs.Start()
	seeds := restartSeeds(opts.Seed, restarts)
	results := make([]*Result, restarts)
	errs := make([]error, restarts)
	par.Each(restarts, opts.Workers, func(r int) {
		init := coneInit
		if r > 0 {
			init = randomInit(seeds[r].init)
		}
		results[r], errs[r] = runOnce(d, opts, init, r, seeds[r].pair)
	})

	// Deterministic selection: walk restarts in index order, so ties (and
	// errors) resolve to the lowest restart index regardless of workers.
	var best *Result
	for r := 0; r < restarts; r++ {
		if errs[r] != nil {
			return nil, errs[r]
		}
		if best == nil || betterResult(results[r], best) {
			best = results[r]
		}
	}
	balanced := 0.0
	if best.Balanced {
		balanced = 1
	}
	opts.Obs.Span(obs.TrackPartition, "multiway", mwT0,
		obs.Arg{Key: "k", Val: float64(opts.K)},
		obs.Arg{Key: "cut", Val: float64(best.Cut)},
		obs.Arg{Key: "balanced", Val: balanced})
	return best, nil
}

// restartSeed carries the two independent random streams of one restart:
// the initial random assignment and the pairer's pair selection.
type restartSeed struct {
	init, pair int64
}

// restartSeeds derives one distinct seed pair per restart from the master
// seed. Pre-drawing the whole sequence (rather than drawing inside the
// restart loop) makes the seeds independent of execution order, so
// concurrent restarts reproduce the sequential ones bit-for-bit; distinct
// pair seeds also mean PairRandom restarts explore different pairing
// sequences instead of replaying one (they all used opts.Seed before).
func restartSeeds(seed int64, n int) []restartSeed {
	rng := rand.New(rand.NewSource(seed))
	out := make([]restartSeed, n)
	for r := range out {
		out[r] = restartSeed{init: rng.Int63(), pair: rng.Int63()}
	}
	return out
}

// RestartSeeds derives n independent single seeds from a master seed,
// pre-drawn so that restarts can run concurrently in any order and still
// reproduce the sequential results bit-for-bit. The n-level partitioner
// shares this idiom for its coarsest-level initial-partition restarts.
func RestartSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for r := range out {
		out[r] = rng.Int63()
	}
	return out
}

func randomInit(seed int64) initFunc {
	return func(d *elab.Design, h *hypergraph.H, k int) *hypergraph.Assignment {
		rr := rand.New(rand.NewSource(seed))
		a := hypergraph.NewAssignment(h, k)
		for i := range a.Parts {
			a.Parts[i] = int32(rr.Intn(k))
		}
		return a
	}
}

// betterResult prefers balanced results, then lower cut, then fewer
// flattened super-gates (more hierarchy preserved).
func betterResult(cand, best *Result) bool {
	if cand.Balanced != best.Balanced {
		return cand.Balanced
	}
	if cand.Cut != best.Cut {
		return cand.Cut < best.Cut
	}
	return cand.Flattened < best.Flattened
}

// maxPreOpenDepth bounds how deep runOnce opens the hierarchy when the
// top-level view is too coarse for K partitions.
const maxPreOpenDepth = 16

// initFunc produces the initial k-way assignment for one pipeline run.
type initFunc func(d *elab.Design, h *hypergraph.H, k int) *hypergraph.Assignment

func coneInit(d *elab.Design, h *hypergraph.H, k int) *hypergraph.Assignment {
	return cone.Partition(d, h, k)
}

// runOnce executes the full pipeline (fig. 2) from one initial partition.
// pairSeed drives this restart's pairer (distinct per restart).
func runOnce(d *elab.Design, opts Options, init initFunc, restart int, pairSeed int64) (*Result, error) {
	rArg := obs.Arg{Key: "restart", Val: float64(restart)}
	buildT0 := opts.Obs.Start()
	builder := hypergraph.NewBuilder(d)
	builder.GateWeights = opts.GateWeights
	h, err := builder.Build()
	if err != nil {
		return nil, err
	}
	// A very shallow hierarchy (e.g. a top with two channel wrappers) can
	// expose fewer super-gates than there are partitions; open the
	// shallowest levels until the hypergraph is divisible at all. Finer
	// balance repair stays with the flattening loop, as in the paper.
	for depth := 1; h.NumVertices() < opts.K && depth <= maxPreOpenDepth; depth++ {
		builder.OpenToDepth(depth + 1)
		h, err = builder.Build()
		if err != nil {
			return nil, err
		}
	}
	if h.NumVertices() < opts.K {
		return nil, fmt.Errorf("partition: only %d vertices for K=%d", h.NumVertices(), opts.K)
	}
	opts.Obs.Span(obs.TrackPartition, "build_hypergraph", buildT0, rArg,
		obs.Arg{Key: "vertices", Val: float64(h.NumVertices())})

	// Phase 1: initial k-way partition (cone partitioning by default).
	initT0 := opts.Obs.Start()
	a := init(d, h, opts.K)
	opts.Obs.Span(obs.TrackPartition, "initial_partition", initT0, rArg)
	cons := NewConstraint(h, opts.K, opts.B)
	pr := newPairer(opts.Strategy, opts.K, pairSeed)
	// One refiner per hypergraph view: pairing probes, iterative movement
	// and load redistribution all read and move through its gain cache,
	// which writes through to a. It is rebuilt only when flattening
	// replaces the view.
	ref := fm.Over(h, a, cons.Feasible(h.Weight))

	res := &Result{Constraint: cons}
	const maxRounds = 10000
	refineT0 := opts.Obs.Start()

	for res.Rounds = 0; res.Rounds < maxRounds; res.Rounds++ {
		p, q, ok := pr.next(h, a, ref)
		if ok {
			// Phase 2: iterative movement between the paired partitions.
			r := ref.RefinePair(p, q, 0)
			if r.GainTotal > 0 {
				pr.markFresh(p, q)
			}
			pr.markStale(p, q)
			continue
		}

		// No pairing configuration available: check the constraint.
		if cons.Satisfied(ref.Cache().Loads()) {
			break // terminate (paper fig. 2)
		}

		// Phase 3: greedy load redistribution, then flattening if the
		// granularity is still too coarse.
		if rebalance(h, ref.Cache(), cons) {
			pr.resetStale()
			continue
		}
		if opts.DisableFlattening {
			break
		}
		target := flattenTarget(h, a, ref.Cache().Loads(), cons)
		if target == hypergraph.NoVertex {
			break // nothing left to flatten; best effort
		}
		opts.Obs.Instant(obs.TrackPartition, "flatten", rArg,
			obs.Arg{Key: "weight", Val: float64(h.Vertices[target].Weight)})
		builder.Open(h.Vertices[target].Inst)
		newH, err := builder.Build()
		if err != nil {
			return nil, err
		}
		newA, err := hypergraph.TransferAssignment(h, a, newH)
		if err != nil {
			return nil, err
		}
		h, a = newH, newA
		ref = fm.Over(h, a, cons.Feasible(h.Weight))
		res.Flattened++
		pr.resetStale()
	}

	res.H = h
	res.Assignment = a
	res.Cut = hypergraph.CutSize(h, a)
	res.Loads = hypergraph.PartLoads(h, a)
	res.Balanced = cons.Satisfied(res.Loads)
	res.GateParts = GatePartsOf(h, a)
	opts.Obs.Span(obs.TrackPartition, "refine", refineT0, rArg,
		obs.Arg{Key: "rounds", Val: float64(res.Rounds)},
		obs.Arg{Key: "flattened", Val: float64(res.Flattened)})
	return res, nil
}

// GatePartsOf projects a vertex assignment down to per-gate partitions.
func GatePartsOf(h *hypergraph.H, a *hypergraph.Assignment) []int32 {
	out := make([]int32, len(h.GateVertex))
	for gi, v := range h.GateVertex {
		out[gi] = a.Parts[v]
	}
	return out
}

// flattenTarget picks the super-gate to flatten: the largest super-gate of
// the most over-loaded partition; if that partition holds none, the
// largest super-gate anywhere (so progress is always possible while
// super-gates remain).
func flattenTarget(h *hypergraph.H, a *hypergraph.Assignment, loads []int, cons Constraint) hypergraph.VertexID {
	_, hi := cons.Bounds()
	worst, worstExcess := int32(-1), 0
	for p, l := range loads {
		if l > hi && l-hi > worstExcess {
			worst, worstExcess = int32(p), l-hi
		}
	}
	if worst >= 0 {
		if v := hypergraph.LargestSuperGate(h, a, worst); v != hypergraph.NoVertex {
			return v
		}
	}
	// Fall back to the globally largest super-gate.
	best, bestW := hypergraph.NoVertex, 0
	for vi := range h.Vertices {
		v := &h.Vertices[vi]
		if v.IsSuper() && v.Weight > bestW {
			best, bestW = hypergraph.VertexID(vi), v.Weight
		}
	}
	return best
}

// rebalance performs greedy load redistribution: while some partition is
// outside the window, move the boundary vertex with the least cut damage
// from the most over-loaded partition to the most under-loaded one,
// provided the move does not overshoot. Gains are read from, and moves
// made through, the view's gain cache. It returns true if the constraint
// became satisfied.
func rebalance(h *hypergraph.H, gc *fm.GainCache, cons Constraint) bool {
	lo, hi := cons.Bounds()
	loads := gc.Loads()
	for iter := 0; iter < h.NumVertices(); iter++ {
		over, under := int32(-1), int32(-1)
		overBy, underBy := 0, 0
		for p, l := range loads {
			if l > hi && l-hi > overBy {
				over, overBy = int32(p), l-hi
			}
			if l < lo && lo-l > underBy {
				under, underBy = int32(p), lo-l
			}
		}
		if over < 0 && under < 0 {
			return true
		}
		// Choose source and destination: prefer draining the most
		// over-loaded into the most under-loaded; fall back to the
		// lightest/heaviest partner.
		src, dst := over, under
		if src < 0 { // only an under-loaded part exists
			src = heaviest(loads)
		}
		if dst < 0 {
			dst = lightest(loads)
		}
		if src == dst {
			return false
		}
		v := bestMove(h, gc, src, dst, hi)
		if v == hypergraph.NoVertex {
			return false
		}
		gc.Move(v, dst)
	}
	return cons.Satisfied(loads)
}

func heaviest(loads []int) int32 {
	best := 0
	for p := 1; p < len(loads); p++ {
		if loads[p] > loads[best] {
			best = p
		}
	}
	return int32(best)
}

func lightest(loads []int) int32 {
	best := 0
	for p := 1; p < len(loads); p++ {
		if loads[p] < loads[best] {
			best = p
		}
	}
	return int32(best)
}

// bestMove finds the vertex in src whose move to dst damages the cut
// least (ties broken toward smaller weight overshoot), or NoVertex if no
// vertex fits under the hi bound.
func bestMove(h *hypergraph.H, gc *fm.GainCache, src, dst int32, hi int) hypergraph.VertexID {
	best := hypergraph.NoVertex
	bestScore := 0
	room := hi - gc.Loads()[dst]
	for vi, part := range gc.Parts() {
		w := h.Vertices[vi].Weight
		if part != src || w > room {
			continue
		}
		// Score: cut gain dominates; prefer heavier vertices to converge
		// faster when gains tie.
		score := gc.Gain(hypergraph.VertexID(vi), dst)*1_000_000 + w
		if best == hypergraph.NoVertex || score > bestScore {
			best = hypergraph.VertexID(vi)
			bestScore = score
		}
	}
	return best
}
