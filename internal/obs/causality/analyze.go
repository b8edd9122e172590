package causality

import (
	"fmt"
	"strings"
)

// Segment is one maximal single-cluster stretch of the critical path.
type Segment struct {
	Cluster int32  `json:"cluster"`
	From    uint64 `json:"from_cycle"`
	To      uint64 `json:"to_cycle"` // inclusive
	Cost    uint64 `json:"cost"`
}

// Analysis is the post-run causality report.
type Analysis struct {
	K      int    `json:"k"`
	Cycles uint64 `json:"cycles"`

	// Committed-event critical path. Costs are gate evaluations (the cost
	// model's unit). CritPath is a lower bound on achievable parallel time
	// for this partition: no schedule can finish before its longest causal
	// chain of committed work.
	SeqCost        uint64    `json:"seq_cost"`         // total committed evaluations
	ClusterCost    []uint64  `json:"cluster_cost"`     // committed evaluations per cluster
	MaxClusterCost uint64    `json:"max_cluster_cost"` // the per-cluster load bound
	CritPath       uint64    `json:"crit_path"`
	CritSegments   []Segment `json:"crit_segments,omitempty"`
	// BoundSpeedup = SeqCost / CritPath: the best speedup any runtime
	// could extract from this partition under the pure event-cost model.
	BoundSpeedup float64 `json:"bound_speedup"`
}

// maxPathCells bounds the back-pointer storage of the critical-path
// backtrack (k × cycles cells); past it the path value is still computed
// but the segment listing is skipped.
const maxPathCells = 1 << 26

// Analyze builds the post-run report. Call only after timewarp.Run has
// returned — the kernel's goroutine join is the memory barrier that makes
// the single-writer shards safe to read.
func (r *Recorder) Analyze() *Analysis {
	if r == nil || r.shards == nil {
		return &Analysis{}
	}
	a := &Analysis{K: r.k, Cycles: r.cycles, ClusterCost: make([]uint64, r.k)}

	// Node (c, t) is cluster c executing cycle t, weighted by its
	// evaluation count. Edges: (c, t-1) → (c, t) within each cluster, plus
	// (src, u-1) → (dst, u) for every cross-cluster message consumed at
	// cycle u — a flip-flop's change, sent at the end of cycle u-1 — so
	// the longest weighted chain is a genuine lower bound on parallel
	// completion time.
	for c := range r.shards {
		for _, n := range r.shards[c].cost {
			a.ClusterCost[c] += uint64(n)
		}
		a.SeqCost += a.ClusterCost[c]
		if a.ClusterCost[c] > a.MaxClusterCost {
			a.MaxClusterCost = a.ClusterCost[c]
		}
	}
	type edge struct{ src, dst int32 }
	edges := map[uint64][]edge{} // consumption cycle → incoming edges
	seenEdge := map[uint64]bool{}
	k64 := uint64(r.k)
	for dst := range r.shards {
		for id, u := range r.shards[dst].consumed {
			src := id.Cluster()
			if src < 0 || int(src) >= r.k || int32(dst) == src || u == 0 || u >= r.cycles {
				continue
			}
			key := (u*k64+uint64(src))*k64 + uint64(dst)
			if seenEdge[key] {
				continue
			}
			seenEdge[key] = true
			edges[u] = append(edges[u], edge{src: src, dst: int32(dst)})
		}
	}
	finish := make([]uint64, r.k)
	old := make([]uint64, r.k)
	trackPath := uint64(r.k)*r.cycles <= maxPathCells
	var pred []int32 // pred[t*k+c] = predecessor cluster of (c, t), or c itself
	if trackPath {
		pred = make([]int32, uint64(r.k)*r.cycles)
	}
	for t := uint64(0); t < r.cycles; t++ {
		copy(old, finish)
		for c := 0; c < r.k; c++ {
			finish[c] = old[c]
			if trackPath {
				pred[t*k64+uint64(c)] = int32(c)
			}
		}
		for _, e := range edges[t] {
			if old[e.src] > finish[e.dst] {
				finish[e.dst] = old[e.src]
				if trackPath {
					pred[t*k64+uint64(e.dst)] = e.src
				}
			}
		}
		for c := 0; c < r.k; c++ {
			finish[c] += uint64(r.shards[c].cost[t])
		}
	}
	end := int32(0)
	for c := 1; c < r.k; c++ {
		if finish[c] > finish[end] {
			end = int32(c)
		}
	}
	if r.k > 0 {
		a.CritPath = finish[end]
	}
	if a.CritPath > 0 {
		a.BoundSpeedup = float64(a.SeqCost) / float64(a.CritPath)
	}
	if trackPath && r.cycles > 0 {
		cur := end
		seg := Segment{Cluster: cur, To: r.cycles - 1}
		for t := r.cycles; t > 0; t-- {
			cy := t - 1
			seg.From = cy
			seg.Cost += uint64(r.shards[cur].cost[cy])
			p := pred[cy*k64+uint64(cur)]
			if p != cur && cy > 0 {
				a.CritSegments = append(a.CritSegments, seg)
				cur = p
				seg = Segment{Cluster: cur, To: cy - 1}
			}
		}
		a.CritSegments = append(a.CritSegments, seg)
		// Built back-to-front; present in execution order.
		for i, j := 0, len(a.CritSegments)-1; i < j; i, j = i+1, j-1 {
			a.CritSegments[i], a.CritSegments[j] = a.CritSegments[j], a.CritSegments[i]
		}
	}
	return a
}

// String renders the report for terminals (vsim -blame, obs.Report).
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "causality: %d clusters, %d cycles\n", a.K, a.Cycles)
	fmt.Fprintf(&b, "critical path: %d of %d committed event-costs (bound speedup %.2fx, busiest cluster %d)\n",
		a.CritPath, a.SeqCost, a.BoundSpeedup, a.MaxClusterCost)
	if len(a.CritSegments) > 0 {
		b.WriteString("  path:")
		for i, s := range a.CritSegments {
			if i == 12 {
				fmt.Fprintf(&b, " ... %d more segments", len(a.CritSegments)-i)
				break
			}
			if i > 0 {
				b.WriteString(" ->")
			}
			fmt.Fprintf(&b, " c%d[%d..%d]:%d", s.Cluster, s.From, s.To, s.Cost)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
