package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/cone"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/partition"
	"repro/internal/stats"
)

// AblationPairing compares the four pairing strategies (paper §3.1.1) at
// one grid point per k: cut size achieved by each criterion.
func (c *Context) AblationPairing(b float64) (*stats.Table, error) {
	t := stats.NewTable("k", "strategy", "cut", "balanced")
	for _, k := range c.Ks {
		for _, s := range []partition.PairingStrategy{
			partition.PairRandom, partition.PairExhaustive,
			partition.PairCutBased, partition.PairGainBased,
		} {
			res, err := partition.Multiway(c.ED, partition.Options{
				K: k, B: b, Strategy: s, Seed: c.Seed,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(k, s.String(), res.Cut, res.Balanced)
		}
	}
	return t, nil
}

// AblationRecursive compares the paper's chosen direct pairwise multiway
// algorithm against the recursive-bisection alternative it rejects
// (§3.1.1), across the grid's machine counts including a non-power-of-two.
func (c *Context) AblationRecursive(b float64) (*stats.Table, error) {
	t := stats.NewTable("k", "direct cut", "direct balanced", "recursive cut", "recursive balanced")
	for _, k := range []int{2, 3, 4, 6} {
		dd, err := partition.Multiway(c.ED, partition.Options{K: k, B: b, Seed: c.Seed})
		if err != nil {
			return nil, err
		}
		rec, err := partition.Recursive(c.ED, partition.Options{K: k, B: b, Seed: c.Seed})
		if err != nil {
			return nil, err
		}
		t.AddRow(k, dd.Cut, dd.Balanced, rec.Cut, rec.Balanced)
	}
	return t, nil
}

// AblationFlattening disables super-gate flattening and reports whether
// the balance constraint survives — the paper's §3.2 motivation. The
// default workload's module granularity is fine enough that flattening
// rarely fires, so the ablation runs on a 2-channel SoC whose channel
// super-gates are far larger than any balance window: without flattening
// them, balance at k not dividing the channels is unreachable.
func (c *Context) AblationFlattening() (*stats.Table, error) {
	soc := gen.ViterbiSoC(gen.SoCConfig{
		Channels:      2,
		Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
		ScramblerBits: 16,
		CRCBits:       8,
	})
	ed, err := soc.Elaborate()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("k", "b", "flattening", "cut", "balanced", "flattened super-gates")
	for _, k := range []int{3, 4} {
		b := 5.0
		on, err := partition.Multiway(ed, partition.Options{K: k, B: b, Seed: c.Seed})
		if err != nil {
			return nil, err
		}
		off, err := partition.Multiway(ed, partition.Options{
			K: k, B: b, Seed: c.Seed, DisableFlattening: true,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(k, b, "on", on.Cut, on.Balanced, on.Flattened)
		t.AddRow(k, b, "off", off.Cut, off.Balanced, off.Flattened)
	}
	return t, nil
}

// AblationInitial compares initial-partition choices at the hierarchical
// view: cone partitioning (the paper's) vs random assignment, each
// followed by the same pairwise-FM refinement.
func (c *Context) AblationInitial(k int, b float64) (*stats.Table, error) {
	h, err := hypergraph.BuildHierarchical(c.ED)
	if err != nil {
		return nil, err
	}
	cons := partition.NewConstraint(h, k, b)
	refine := func(a *hypergraph.Assignment) {
		fm.Over(h, a, cons.Feasible(h.Weight)).RefineAllPairs()
	}

	t := stats.NewTable("init", "cut before", "cut after", "balanced")
	// Cone initial partition.
	a := cone.Partition(c.ED, h, k)
	before := hypergraph.CutSize(h, a)
	refine(a)
	t.AddRow("cone", before, hypergraph.CutSize(h, a),
		cons.Satisfied(hypergraph.PartLoads(h, a)))
	// Random initial partition (seeded PRNG).
	rng := rand.New(rand.NewSource(c.Seed))
	a = hypergraph.NewAssignment(h, k)
	for i := range a.Parts {
		a.Parts[i] = int32(rng.Intn(k))
	}
	before = hypergraph.CutSize(h, a)
	refine(a)
	t.AddRow("random", before, hypergraph.CutSize(h, a),
		cons.Satisfied(hypergraph.PartLoads(h, a)))
	return t, nil
}

// ActivityWeightStudy implements the paper's future-work load metric:
// vertex loads weighted by pre-simulation activity (per-gate event counts)
// instead of raw gate counts, then compares the modeled speedup of the two
// partitions at the same (k, b).
func (c *Context) ActivityWeightStudy(k int, b float64) (string, error) {
	// Profile activity with a short sequential run.
	prof, err := profileActivity(c, c.PresimCycles/10)
	if err != nil {
		return "", err
	}
	plain, err := c.evalPoint(k, b, c.PresimCycles)
	if err != nil {
		return "", err
	}
	res, err := partition.Multiway(c.ED, partition.Options{
		K: k, B: b, Seed: c.Seed, GateWeights: prof,
	})
	if err != nil {
		return "", err
	}
	wRes, err := c.model(res.GateParts, k, c.PresimCycles, false)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf(
		"k=%d b=%g: gate-count weights: cut=%d speedup=%.2f; activity weights: cut=%d speedup=%.2f",
		k, b, plain.Cut, plain.Speedup, res.Cut, wRes.Speedup), nil
}
