package partition

import (
	"math/rand"

	"repro/internal/fm"
	"repro/internal/hypergraph"
)

// PairingStrategy selects which two partitions to pair for the next round
// of iterative movement (paper §3.1.1).
type PairingStrategy int

// The four pairing criteria the paper lists.
const (
	// PairRandom pairs partitions at random: simple and efficient, but
	// the pairing quality is not good.
	PairRandom PairingStrategy = iota
	// PairExhaustive tries every combination of partitions each round:
	// computationally complex but able to climb out of local minima.
	PairExhaustive
	// PairCutBased pairs the two partitions with the maximum mutual
	// cut-size.
	PairCutBased
	// PairGainBased pairs the two partitions with the maximum achievable
	// cut-size reduction (estimated by a probe FM pass).
	PairGainBased
)

var pairingNames = [...]string{"random", "exhaustive", "cut", "gain"}

func (s PairingStrategy) String() string {
	if int(s) < len(pairingNames) {
		return pairingNames[s]
	}
	return "unknown"
}

// ParsePairingStrategy resolves a strategy name used by the CLIs.
func ParsePairingStrategy(name string) (PairingStrategy, bool) {
	for i, n := range pairingNames {
		if n == name {
			return PairingStrategy(i), true
		}
	}
	return 0, false
}

// pairer enumerates candidate pairs per round and remembers which pairs
// have stopped producing gain, ending the algorithm when no pairing
// configuration is available (paper fig. 2).
type pairer struct {
	strategy PairingStrategy
	k        int
	rng      *rand.Rand
	// stale marks pairs that produced no gain since the hypergraph or the
	// assignment around them last changed.
	stale map[[2]int32]bool
}

func newPairer(strategy PairingStrategy, k int, seed int64) *pairer {
	return &pairer{
		strategy: strategy,
		k:        k,
		rng:      rand.New(rand.NewSource(seed)),
		stale:    make(map[[2]int32]bool),
	}
}

// resetStale clears staleness (after flattening changes the hypergraph).
func (pr *pairer) resetStale() {
	pr.stale = make(map[[2]int32]bool)
}

// markStale records that (p,q) produced no gain.
func (pr *pairer) markStale(p, q int32) {
	pr.stale[pairKey(p, q)] = true
}

// markFresh clears staleness for all pairs involving p or q (their
// boundaries changed).
func (pr *pairer) markFresh(p, q int32) {
	for key := range pr.stale {
		if key[0] == p || key[1] == p || key[0] == q || key[1] == q {
			delete(pr.stale, key)
		}
	}
}

func pairKey(p, q int32) [2]int32 {
	if p > q {
		p, q = q, p
	}
	return [2]int32{p, q}
}

// next picks the next pair to refine, or ok=false when no pairing
// configuration remains.
func (pr *pairer) next(h *hypergraph.H, a *hypergraph.Assignment, ref *fm.Refiner) (p, q int32, ok bool) {
	fresh := pr.freshPairs()
	if len(fresh) == 0 {
		return 0, 0, false
	}
	switch pr.strategy {
	case PairRandom:
		key := fresh[pr.rng.Intn(len(fresh))]
		return key[0], key[1], true

	case PairExhaustive:
		// Every fresh combination will be visited; take them in order.
		key := fresh[0]
		return key[0], key[1], true

	case PairCutBased:
		m := hypergraph.PairCutMatrix(h, a)
		best := fresh[0]
		bestCut := -1
		for _, key := range fresh {
			if c := m[key[0]][key[1]]; c > bestCut {
				bestCut = c
				best = key
			}
		}
		return best[0], best[1], true

	case PairGainBased:
		// Probe each fresh pair with a single FM pass — run on the live
		// gain cache and undone — and pick the pair with the largest
		// achievable reduction.
		best := fresh[0]
		bestGain := -1
		for _, key := range fresh {
			if g := ref.ProbePair(key[0], key[1]); g > bestGain {
				bestGain = g
				best = key
			}
		}
		if bestGain <= 0 {
			// No pair can improve; exhaust them in order so the caller's
			// stale marking terminates the loop.
			return fresh[0][0], fresh[0][1], true
		}
		return best[0], best[1], true
	}
	return 0, 0, false
}

// freshPairs lists all non-stale pairs in deterministic order.
func (pr *pairer) freshPairs() [][2]int32 {
	var out [][2]int32
	for p := int32(0); p < int32(pr.k); p++ {
		for q := p + 1; q < int32(pr.k); q++ {
			if !pr.stale[[2]int32{p, q}] {
				out = append(out, [2]int32{p, q})
			}
		}
	}
	return out
}
