package multilevel

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// run is the one multilevel skeleton, the layout of "n-Level Hypergraph
// Partitioning" (arXiv 1505.00693): validate, contract heavy-edge pairs
// one at a time onto a memory-compact contraction stack (hypergraph.Dyn)
// instead of building a coarse hypergraph per level, partition a compact
// copy of the coarsest view, load the winner into an incrementally
// maintained gain cache (fm.GainCache), and hand the ascent to the
// refinement policy. It owns the Dyn, the cache and the refiner for the
// whole run and does not know which entry point called it.
//
// Coarsening and the restart pool are parallel but deterministic: each
// round computes heavy-edge partners for all active vertices in a
// read-only parallel scan and resolves conflicts by fixed vertex-ID
// priority, restarts run from pre-drawn seeds, and the same seed yields
// the same assignment at any Workers value.
//
// Individually-oversized vertices (weight above the balance window — the
// huge super-gates that used to force the flattening fallback) sit alone
// in dedicated solo blocks, and the balance window is re-derived over the
// remaining blocks (partition.Aware, arXiv 2102.01378).
func run(h *hypergraph.H, opts Options, pol policy) (*Result, error) {
	if opts.K < 2 {
		return nil, fmt.Errorf("multilevel: K must be >= 2, got %d", opts.K)
	}
	if opts.B <= 0 {
		return nil, fmt.Errorf("multilevel: B must be positive, got %g", opts.B)
	}
	if h.NumVertices() < opts.K {
		return nil, fmt.Errorf("multilevel: only %d vertices for K=%d", h.NumVertices(), opts.K)
	}
	if opts.CoarsestSize == 0 {
		opts.CoarsestSize = 30 * opts.K
	}
	if opts.Restarts <= 0 {
		opts.Restarts = defaultRestarts
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	workers := opts.Workers
	totalT0 := opts.Obs.Start()

	cons := partition.NewConstraint(h, opts.K, opts.B)

	// Oversized super-gates sit alone in solo blocks (the last nSolo block
	// indices, in ascending vertex-ID order).
	var soloVerts []hypergraph.VertexID
	skip := make([]bool, h.NumVertices())
	soloWeight := 0
	for vi := range h.Vertices {
		if cons.Oversized(h.Vertices[vi].Weight) {
			skip[vi] = true
			soloVerts = append(soloVerts, hypergraph.VertexID(vi))
			soloWeight += h.Vertices[vi].Weight
		}
	}
	kShared := opts.K - len(soloVerts)
	if kShared < 1 {
		return nil, fmt.Errorf("multilevel: %d oversized vertices leave no shared block at k=%d", len(soloVerts), opts.K)
	}
	soloMask := make([]bool, opts.K)
	for i := range soloVerts {
		soloMask[kShared+i] = true
	}
	aware := cons.Aware(soloMask, soloWeight)

	// Phase 1: coarsening.
	coarsenT0 := opts.Obs.Start()
	d := hypergraph.NewDyn(h)
	boundaries := coarsenN(d, skip, opts.CoarsestSize, clusterCap(aware, opts.CoarsestSize), workers)
	opts.Obs.Span(obs.TrackPartition, pol.name+"_coarsen", coarsenT0,
		obs.Arg{Key: "rounds", Val: float64(len(boundaries))},
		obs.Arg{Key: "contractions", Val: float64(d.Depth())},
		obs.Arg{Key: "coarsest", Val: float64(d.NumActive())})

	// Phase 2: initial partitioning at the coarsest level — best of
	// Restarts region-growing runs over a compact materialization of the
	// active sub-hypergraph, run on a bounded worker pool with pre-drawn
	// per-restart seeds so any Workers value reproduces the same winner.
	initT0 := opts.Obs.Start()
	ch, cvert := compactActive(d, skip)
	optsC := opts
	optsC.K = kShared
	seeds := partition.RestartSeeds(opts.Seed, opts.Restarts)
	cands := make([]*hypergraph.Assignment, opts.Restarts)
	if workers <= 1 || opts.Restarts == 1 {
		for r := range cands {
			cands[r] = initialPartition(ch, optsC, rand.New(rand.NewSource(seeds[r])))
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for r := range cands {
			sem <- struct{}{}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer func() { <-sem }()
				cands[r] = initialPartition(ch, optsC, rand.New(rand.NewSource(seeds[r])))
			}(r)
		}
		wg.Wait()
	}
	bestRestart := 0
	for r := 1; r < len(cands); r++ {
		if better(ch, cands[r], cands[bestRestart], optsC) {
			bestRestart = r
		}
	}
	parts := make([]int32, h.NumVertices())
	for ci, v := range cvert {
		parts[v] = cands[bestRestart].Parts[ci]
	}
	for i, v := range soloVerts {
		parts[v] = int32(kShared + i)
	}
	opts.Obs.Span(obs.TrackPartition, pol.name+"_init", initT0,
		obs.Arg{Key: "restart", Val: float64(bestRestart)},
		obs.Arg{Key: "restarts", Val: float64(opts.Restarts)})

	// Phase 3: back up to full resolution, refined as the policy sees fit.
	refineT0 := opts.Obs.Start()
	gc := fm.NewGainCache(d, opts.K)
	gc.Reset(parts)
	feasible := func(v hypergraph.VertexID, from, to int32, loads []int) bool {
		return aware.FeasibleLoad(d.Weight(v), from, to, loads)
	}
	up := &ascent{d: d, ref: fm.NewRefiner(gc, feasible), boundaries: boundaries}
	refineArgs := pol.refine(up, opts)
	opts.Obs.Span(obs.TrackPartition, pol.name+"_refine", refineT0, refineArgs...)

	a := &hypergraph.Assignment{K: opts.K, Parts: append([]int32(nil), gc.Parts()...)}
	res := &Result{
		Assignment: a,
		Cut:        hypergraph.CutSize(h, a),
		Loads:      hypergraph.PartLoads(h, a),
		Levels:     len(boundaries),
		GateParts:  partition.GatePartsOf(h, a),
		Restart:    bestRestart,
	}
	res.Balanced = aware.Satisfied(res.Loads) // the plain window when nothing is solo
	opts.Obs.Span(obs.TrackPartition, pol.name, totalT0,
		obs.Arg{Key: "k", Val: float64(opts.K)},
		obs.Arg{Key: "cut", Val: float64(res.Cut)},
		obs.BoolArg("balanced", res.Balanced))
	return res, nil
}

// ascent is the way back up to full resolution as a refinement policy
// sees it: the contracted view, the refiner whose gain cache tracks it, and
// the coarsening-round boundaries still to be crossed.
type ascent struct {
	d          *hypergraph.Dyn
	ref        *fm.Refiner
	boundaries []int // stack depth at the end of each round not yet undone
}

// next uncontracts one coarsening round — down to the previous round's
// boundary, or to full resolution — keeping the gain cache exact, and
// calls each (nil: nothing) after every single uncontraction. It reports
// false, touching nothing, once the view is at full resolution.
func (up *ascent) next(each func(m hypergraph.Memento)) bool {
	n := len(up.boundaries)
	if n == 0 {
		return false
	}
	up.boundaries = up.boundaries[:n-1]
	floor := 0
	if n > 1 {
		floor = up.boundaries[n-2]
	}
	gc := up.ref.Cache()
	for up.d.Depth() > floor {
		m := up.d.Uncontract()
		gc.OnUncontract(m)
		if each != nil {
			each(m)
		}
	}
	return true
}

// clusterCap bounds the weight a coarse cluster may accumulate: a few
// times the average coarsest-cluster weight, and never above the shared
// window's upper bound so every cluster stays individually placeable.
func clusterCap(aware partition.Aware, coarsestSize int) int {
	_, hi := aware.Rem.Bounds()
	limit := 4 * aware.Rem.Total / coarsestSize
	if limit > hi {
		limit = hi
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// coarsenN contracts heavy-edge pairs round by round until coarsestSize
// active vertices remain (or no further progress). Per round: a parallel
// read-only scan rates every active vertex's best partner, then matches
// are resolved serially in ascending vertex-ID order — a fixed priority
// that makes the outcome independent of the worker count. Returns the
// stack depth at each round boundary (ascending).
func coarsenN(d *hypergraph.Dyn, skip []bool, coarsestSize, maxW, workers int) []int {
	var boundaries []int
	n := d.NumVertices()
	partner := make([]hypergraph.VertexID, n)
	matched := make([]bool, n)
	scratch := make([]*rateScratch, workers)
	for w := range scratch {
		scratch[w] = &rateScratch{score: make([]float64, n)}
	}
	var active []hypergraph.VertexID
	for d.NumActive() > coarsestSize {
		active = d.ActiveVertices(active)
		for _, v := range active {
			partner[v] = hypergraph.NoVertex
			matched[v] = false
		}
		parallelChunks(len(active), workers, func(w, lo, hi int) {
			s := scratch[w]
			for i := lo; i < hi; i++ {
				u := active[i]
				if !skip[u] {
					partner[u] = bestPartner(d, u, skip, maxW, s)
				}
			}
		})
		contracted := 0
		for _, u := range active {
			v := partner[u]
			if v == hypergraph.NoVertex || matched[u] || matched[v] {
				continue
			}
			matched[u], matched[v] = true, true
			d.Contract(u, v)
			contracted++
			if d.NumActive() <= coarsestSize {
				break
			}
		}
		boundaries = append(boundaries, d.Depth())
		// Give up when a round shrinks the graph by less than 2%.
		if contracted == 0 || contracted*50 < len(active) {
			break
		}
	}
	return boundaries
}

type rateScratch struct {
	score   []float64
	touched []hypergraph.VertexID
}

// bestPartner returns u's highest-rated contraction partner under the
// heavy-edge rating Σ_e w(e)/(|e|−1) over shared edges, respecting the
// cluster weight cap. Ties break toward the smaller vertex ID, so the
// result is deterministic regardless of scan order.
func bestPartner(d *hypergraph.Dyn, u hypergraph.VertexID, skip []bool, maxW int, s *rateScratch) hypergraph.VertexID {
	for _, e := range d.Incident(u) {
		sz := d.EdgeSize(e)
		if sz < 2 {
			continue
		}
		r := float64(d.EdgeWeight(e)) / float64(sz-1)
		for _, v := range d.Pins(e) {
			if v == u || skip[v] {
				continue
			}
			if s.score[v] == 0 {
				s.touched = append(s.touched, v)
			}
			s.score[v] += r
		}
	}
	wu := d.Weight(u)
	best := hypergraph.NoVertex
	bestScore := 0.0
	for _, v := range s.touched {
		sc := s.score[v]
		s.score[v] = 0
		if wu+d.Weight(v) > maxW {
			continue
		}
		if sc > bestScore || (sc == bestScore && best != hypergraph.NoVertex && v < best) {
			best, bestScore = v, sc
		}
	}
	s.touched = s.touched[:0]
	return best
}

// parallelChunks splits [0,n) into one contiguous chunk per worker and
// runs f(workerIdx, lo, hi) concurrently. Small inputs run inline.
func parallelChunks(n, workers int, f func(w, lo, hi int)) {
	if workers <= 1 || n < 512 {
		f(0, 0, n)
		return
	}
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
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
			f(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// compactActive materializes the active, non-skipped sub-hypergraph of d
// as a plain H for the coarsest-level initial partitioning, and returns
// the mapping from compact vertex index back to finest VertexID.
func compactActive(d *hypergraph.Dyn, skip []bool) (*hypergraph.H, []hypergraph.VertexID) {
	toCompact := make([]int32, d.NumVertices())
	for i := range toCompact {
		toCompact[i] = -1
	}
	var cvert []hypergraph.VertexID
	ch := &hypergraph.H{}
	for vi := 0; vi < d.NumVertices(); vi++ {
		v := hypergraph.VertexID(vi)
		if !d.Active(v) || skip[v] {
			continue
		}
		toCompact[v] = int32(len(cvert))
		ch.Vertices = append(ch.Vertices, hypergraph.Vertex{
			ID:     hypergraph.VertexID(len(cvert)),
			Weight: d.Weight(v),
		})
		ch.TotalWeight += d.Weight(v)
		cvert = append(cvert, v)
	}
	for ei := 0; ei < d.NumEdges(); ei++ {
		e := hypergraph.EdgeID(ei)
		var pins []hypergraph.VertexID
		for _, p := range d.Pins(e) {
			if toCompact[p] >= 0 {
				pins = append(pins, hypergraph.VertexID(toCompact[p]))
			}
		}
		if len(pins) < 2 {
			continue
		}
		ce := hypergraph.EdgeID(len(ch.Edges))
		ch.Edges = append(ch.Edges, hypergraph.Edge{ID: ce, Pins: pins, Weight: d.EdgeWeight(e)})
		for _, p := range pins {
			ch.Vertices[p].Edges = append(ch.Vertices[p].Edges, ce)
		}
	}
	return ch, cvert
}
