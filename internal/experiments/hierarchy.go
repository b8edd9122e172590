package experiments

import (
	"fmt"

	"repro/internal/clustersim"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/stats"
)

// HierarchyStudy is the empirical backing for the paper's Figure 5
// discussion ("as the number of processors increases, the circuit is
// divided more finely and the design hierarchy is destroyed"): on a
// two-channel decoder SoC, k=2 aligns with the channel boundary (tiny
// cut), while larger k must split inside a channel's trellis, so cut and
// communication jump and speedup stops improving.
func HierarchyStudy(cycles uint64, seed int64) (*stats.Table, error) {
	c := gen.ViterbiSoC(gen.SoCConfig{
		Channels:      2,
		Viterbi:       gen.ViterbiConfig{K: 5, W: 6, TB: 16},
		ScramblerBits: 24,
		CRCBits:       16,
	})
	ed, err := c.Elaborate()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("k", "cut", "messages", "rollbacks", "speedup")
	for _, k := range []int{2, 3, 4, 6, 8} {
		pr, err := partition.Multiway(ed, partition.Options{K: k, B: 10, Seed: seed})
		if err != nil {
			return nil, err
		}
		res, err := clustersim.Run(clustersim.Config{
			NL: ed.Netlist, GateParts: pr.GateParts, K: k,
			Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(k, pr.Cut, res.Messages, res.Rollbacks, fmt.Sprintf("%.2f", res.Speedup))
	}
	return t, nil
}

// SyncVsOptimistic compares the Time Warp execution model against the
// conservative barrier-synchronous baseline at each machine count — an
// ablation beyond the paper (which runs Time Warp only). On uniform-
// activity workloads with balanced partitions the synchronous model can
// win (barriers are cheap relative to per-cycle work); optimism pays when
// activity fluctuates or latency dominates.
func (c *Context) SyncVsOptimistic(points []*GridPoint) (*stats.Table, error) {
	t := stats.NewTable("k", "b", "optimistic speedup", "synchronous speedup")
	best := BestPerK(points)
	for _, k := range c.Ks {
		p, ok := best[k]
		if !ok {
			continue
		}
		rec, err := c.Partition(p.K, p.B)
		if err != nil {
			return nil, err
		}
		syn, err := c.model(rec.gateParts, p.K, c.PresimCycles, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.K, p.B, fmt.Sprintf("%.2f", p.Speedup), fmt.Sprintf("%.2f", syn.Speedup))
	}
	return t, nil
}

// ClusteringStudy reproduces the premise behind the bottom-up clustering
// related work the paper cites (Karypis et al., Dutt & Deng): extract
// clusters from the FLAT netlist by connectivity coarsening, partition at
// cluster granularity, and compare against partitioning at the TRUE module
// granularity. Connectivity clustering sees topology but not the
// registered-boundary structure designers build in, so its clusters cut
// busier nets — design information beats recovered structure.
func (c *Context) ClusteringStudy(k int, b float64) (*stats.Table, error) {
	flat, err := hypergraph.BuildFlat(c.ED)
	if err != nil {
		return nil, err
	}
	hier, err := hypergraph.BuildHierarchical(c.ED)
	if err != nil {
		return nil, err
	}
	// Bottom-up: coarsen to roughly the module count, refine only at
	// cluster granularity and above.
	mlRes, err := multilevel.Partition(flat, multilevel.Options{
		K: k, B: b, Seed: c.Seed,
		CoarsestSize: hier.NumVertices(),
		RefineAbove:  hier.NumVertices() * 2,
	})
	if err != nil {
		return nil, err
	}
	clusterRes, err := c.model(mlRes.GateParts, k, c.PresimCycles, false)
	if err != nil {
		return nil, err
	}
	ddPoint, err := c.evalPoint(k, b, c.PresimCycles)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("granularity", "cut", "messages", "speedup")
	t.AddRow("design hierarchy (modules)", ddPoint.Cut, ddPoint.Messages,
		fmt.Sprintf("%.2f", ddPoint.Speedup))
	t.AddRow("bottom-up clusters (flat)", mlRes.Cut, clusterRes.Messages,
		fmt.Sprintf("%.2f", clusterRes.Speedup))
	return t, nil
}

// ScaleStudy partitions progressively larger Viterbi decoders with both
// algorithms and reports cuts and partitioner runtimes — the "million
// gate" trajectory of the paper's conclusion (their future-work Sparc
// design). Sizes are constraint lengths; K=9 is ~100k gates.
func ScaleStudy(constraintLengths []int, seed int64) (*stats.Table, error) {
	if len(constraintLengths) == 0 {
		constraintLengths = []int{5, 6, 7, 8}
	}
	t := stats.NewTable("K (states)", "gates", "hier vertices", "dd cut k=4", "dd rounds")
	for _, K := range constraintLengths {
		c := gen.Viterbi(gen.ViterbiConfig{K: K, W: 8, TB: 24})
		ed, err := c.Elaborate()
		if err != nil {
			return nil, err
		}
		res, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: seed})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d (%d)", K, 1<<(K-1)), ed.Netlist.NumGates(),
			res.H.NumVertices(), res.Cut, res.Rounds)
	}
	return t, nil
}
