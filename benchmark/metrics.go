package main

import (
	"fmt"
	"sort"
)

// metric is one named number the benchmark may emit. The table below is
// the single place a name, its unit, its direction and its regression
// bound are fixed; BENCHMARK.json repeats it for the driver and the
// self-test fails when the two disagree.
type metric struct {
	name string
	unit string
	// higher reports that a larger value is better.
	higher bool
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it regressed. Layer metrics
	// carry none.
	bound float64
	// layer marks a per-layer metric (traced run); the rest are
	// end-to-end (untraced run).
	layer bool
	// exact marks a value that must be bit-identical in every repetition
	// of one run: a differing sample is a failed determinism check.
	exact bool
}

const (
	unitSeconds = "s"
	unitCount   = "count"
	unitRatio   = "ratio"
	unitRate    = "1/s"
	unitMB      = "MB"
	unitBytes   = "B"
	unitPercent = "%"
)

// metrics lists every name the benchmark emits. End-to-end metrics are
// defined on all four workloads (README.md says how each reads on
// partition_campaign); a layer metric is emitted only by the workloads
// that run the layer.
var metrics = []metric{
	// ---- end to end (host time unless said) ----
	{name: "setup_s", unit: unitSeconds, bound: 0.25},
	{name: "speedup_vs_seq", unit: unitRatio, higher: true, bound: 0.25},
	{name: "pipeline_over_seq", unit: unitRatio, bound: 0.25},
	{name: "modeled_speedup", unit: unitRatio, higher: true, bound: 0.15, exact: true},
	{name: "pipeline_alloc_mb", unit: unitMB, bound: 0.25},
	{name: "pipeline_allocs", unit: unitCount, bound: 0.25},

	// ---- front end ----
	{name: "verilog.parse_s", unit: unitSeconds, layer: true},
	{name: "verilog.src_bytes", unit: unitBytes, layer: true, exact: true},
	{name: "elab.elaborate_s", unit: unitSeconds, layer: true},
	{name: "elab.gates", unit: unitCount, layer: true, exact: true},

	// ---- partitioning substrate (probes, traced run only) ----
	{name: "hypergraph.build_hier_s", unit: unitSeconds, layer: true},
	{name: "hypergraph.build_flat_s", unit: unitSeconds, layer: true},
	{name: "hypergraph.vertices_hier", unit: unitCount, layer: true, exact: true},
	{name: "hypergraph.vertices_flat", unit: unitCount, layer: true, exact: true},
	{name: "cone.partition_s", unit: unitSeconds, layer: true},
	{name: "fm.refine_pair_s", unit: unitSeconds, layer: true},
	{name: "fm.refine_pair_gain", unit: unitCount, higher: true, layer: true, exact: true},

	// ---- partitioners ----
	{name: "partition.multiway_s", unit: unitSeconds, layer: true},
	{name: "partition.cut", unit: unitCount, layer: true, exact: true},
	{name: "partition.imbalance", unit: unitRatio, layer: true, exact: true},
	{name: "partition.flattened", unit: unitCount, layer: true, exact: true},
	{name: "multilevel.flat_s", unit: unitSeconds, layer: true},
	{name: "multilevel.flat_cut", unit: unitCount, layer: true, exact: true},
	{name: "multilevel.nlevel_s", unit: unitSeconds, layer: true},
	{name: "multilevel.nlevel_cut", unit: unitCount, layer: true, exact: true},
	{name: "multilevel.nlevel_workers_ratio", unit: unitRatio, higher: true, layer: true},

	// ---- pre-simulation search and the cluster model ----
	{name: "presim.search_s", unit: unitSeconds, layer: true},
	{name: "presim.points_visited", unit: unitCount, layer: true, exact: true},
	{name: "presim.best_k", unit: unitCount, layer: true, exact: true},
	{name: "presim.best_b", unit: unitPercent, layer: true, exact: true},
	{name: "clustersim.run_s", unit: unitSeconds, layer: true},
	{name: "clustersim.events_per_s", unit: unitRate, higher: true, layer: true},
	{name: "clustersim.messages", unit: unitCount, layer: true, exact: true},
	{name: "clustersim.rollbacks", unit: unitCount, layer: true, exact: true},
	{name: "clustersim.bound_speedup", unit: unitRatio, higher: true, layer: true, exact: true},
	{name: "clustersim.packed_ratio", unit: unitRatio, higher: true, layer: true},
	{name: "clustersim.modeled_over_real", unit: unitRatio, layer: true},

	// ---- sequential simulator (the oracle and the speedup's base) ----
	{name: "sim.run_s", unit: unitSeconds, layer: true},
	{name: "sim.events", unit: unitCount, layer: true, exact: true},
	{name: "sim.events_per_s", unit: unitRate, higher: true, layer: true},

	// ---- in-process Time Warp kernel ----
	{name: "timewarp.run_s", unit: unitSeconds, layer: true},
	{name: "timewarp.committed_events_per_s", unit: unitRate, higher: true, layer: true},
	{name: "timewarp.events_executed", unit: unitCount, layer: true},
	{name: "timewarp.rolled_back_frac", unit: unitRatio, layer: true},
	{name: "timewarp.efficiency", unit: unitRatio, higher: true, layer: true},
	{name: "timewarp.rollbacks", unit: unitCount, layer: true},
	{name: "timewarp.messages", unit: unitCount, layer: true},
	{name: "timewarp.anti_messages", unit: unitCount, layer: true},
	{name: "timewarp.checkpoints", unit: unitCount, layer: true},
	{name: "timewarp.max_straggler_depth", unit: unitCount, layer: true},
	{name: "timewarp.mean_batch", unit: unitCount, higher: true, layer: true},
	{name: "timewarp.pool_hit_frac", unit: unitRatio, higher: true, layer: true},
	{name: "timewarp.load_imbalance", unit: unitRatio, layer: true},

	// ---- distributed driver ----
	{name: "dist.run_s", unit: unitSeconds, layer: true},
	{name: "dist.committed_events_per_s", unit: unitRate, higher: true, layer: true},
	{name: "dist.wire_frames", unit: unitCount, layer: true},
	{name: "dist.rolled_back_frac", unit: unitRatio, layer: true},
	{name: "dist.vs_inproc_ratio", unit: unitRatio, higher: true, layer: true},

	// ---- observability, host, harness ----
	{name: "obs.on_off_ratio", unit: unitRatio, layer: true},
	{name: "host.gomaxprocs", unit: unitCount, higher: true, layer: true, exact: true},
	{name: "host.nproc", unit: unitCount, higher: true, layer: true, exact: true},
	{name: "host.peak_rss_mb", unit: unitMB, layer: true},
	{name: "harness.pipeline_wall_s", unit: unitSeconds, layer: true},
	{name: "harness.trace_overhead_ratio", unit: unitRatio, layer: true},
}

var metricByName = func() map[string]*metric {
	m := make(map[string]*metric, len(metrics))
	for i := range metrics {
		m[metrics[i].name] = &metrics[i]
	}
	return m
}()

// samples collects, per metric name, one value per repetition.
type samples map[string][]float64

func (s samples) add(name string, v float64) {
	if metricByName[name] == nil {
		// A name outside the table is a bug in the benchmark, not a
		// measurement; fail loudly instead of emitting it.
		panic(fmt.Sprintf("benchmark: sample for unnamed metric %q", name))
	}
	s[name] = append(s[name], v)
}

// value is one reported metric: the median over the repetitions (or the
// exact value) plus the range and the sample count.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// aggregate reduces the samples to one value per metric. A differing
// sample of an exact metric is a failed determinism check.
func (s samples) aggregate(ck *checker) map[string]value {
	out := make(map[string]value, len(s))
	for name, vs := range s {
		m := metricByName[name]
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		v := value{Unit: m.unit, Min: sorted[0], Max: sorted[len(sorted)-1], N: len(vs)}
		if m.exact {
			v.Value = vs[0]
			ck.check(v.Min == v.Max, "determinism: %s differs between repetitions: %v and %v", name, v.Min, v.Max)
		} else {
			v.Value = median(sorted)
		}
		out[name] = v
	}
	return out
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
