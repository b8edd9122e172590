// Benchmarks: one per table and figure of the paper's evaluation (the
// regeneration recipes), plus component micro-benchmarks for the major
// subsystems. The table/figure benches time the operation that produces
// the artifact and attach the artifact's headline numbers as custom
// metrics, so `go test -bench=.` both measures and reproduces.
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clustersim"
	"repro/internal/cone"
	"repro/internal/elab"
	"repro/internal/experiments"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/netlist"
	"repro/internal/obs"
	causalitypkg "repro/internal/obs/causality"
	"repro/internal/partition"
	"repro/internal/presim"
	"repro/internal/sim"
	"repro/internal/timewarp"
	"repro/internal/verilog"
)

// ---- shared fixtures ------------------------------------------------------

var (
	fixtureOnce sync.Once
	fixtureED   *elab.Design // the default Viterbi workload
	fixtureSrc  string       // its Verilog source
	benchCtx    *experiments.Context
	benchGrid   []*experiments.GridPoint
	gridOnce    sync.Once
)

func workload(b *testing.B) *elab.Design {
	b.Helper()
	fixtureOnce.Do(func() {
		c := gen.Viterbi(gen.DefaultViterbi)
		fixtureSrc = c.Source
		ed, err := c.Elaborate()
		if err != nil {
			panic(err)
		}
		fixtureED = ed
	})
	return fixtureED
}

// grid computes the (k, b) pre-simulation grid once, at a bench-friendly
// scale (1,000 vectors; cmd/experiments runs the paper-scale 10,000).
func grid(b *testing.B) (*experiments.Context, []*experiments.GridPoint) {
	b.Helper()
	workload(b)
	gridOnce.Do(func() {
		ks, bs := experiments.DefaultGrid()
		benchCtx = &experiments.Context{
			ED: fixtureED, Ks: ks, Bs: bs,
			PresimCycles: 1000, FullCycles: 5000, Seed: 1, MLBalance: 5,
		}
		benchCtx.Init()
		pts, err := benchCtx.PresimGrid()
		if err != nil {
			panic(err)
		}
		benchGrid = pts
	})
	return benchCtx, benchGrid
}

// ---- Table 1: design-driven cut grid -------------------------------------

func BenchmarkTable1DesignDrivenPartition(b *testing.B) {
	ed := workload(b)
	b.ResetTimer()
	var cut int
	for i := 0; i < b.N; i++ {
		res, err := partition.Multiway(ed, partition.Options{K: 4, B: 7.5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cut = res.Cut
	}
	b.ReportMetric(float64(cut), "cut")
}

// ---- Table 2: multilevel (hMetis-substitute) cut grid --------------------

func BenchmarkTable2MultilevelPartition(b *testing.B) {
	ed := workload(b)
	b.ResetTimer()
	var cut int
	for i := 0; i < b.N; i++ {
		_, res, err := multilevel.PartitionFlat(ed, multilevel.Options{K: 4, B: 5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cut = res.Cut
	}
	b.ReportMetric(float64(cut), "cut")
}

// ---- Table 3: pre-simulation grid -----------------------------------------

func BenchmarkTable3Presimulation(b *testing.B) {
	ctx, pts := grid(b)
	best := experiments.BestPerK(pts)[3]
	rec, err := ctx.PartitionParts(3, best.B)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := clustersim.Run(clustersim.Config{
			NL: ctx.ED.Netlist, GateParts: rec, K: 3,
			Vectors: sim.RandomVectors{Seed: 1}, Cycles: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Speedup
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(best.Cut), "cut")
}

// ---- Table 4: best-partition search (heuristic pre-simulation) -----------

func BenchmarkTable4HeuristicSearch(b *testing.B) {
	ed := workload(b)
	cfg := &presim.Config{
		Design: ed, Ks: []int{2, 3, 4}, Bs: []float64{7.5, 10, 12.5, 15},
		Cycles: 300, Seed: 1,
	}
	b.ResetTimer()
	var visits int
	var speedup float64
	for i := 0; i < b.N; i++ {
		best, visited, err := presim.Heuristic(cfg)
		if err != nil {
			b.Fatal(err)
		}
		visits = len(visited)
		speedup = best.Speedup
	}
	b.ReportMetric(float64(visits), "presim-runs")
	b.ReportMetric(speedup, "best-speedup")
}

// ---- Table 5 / Figure 5: full simulation vs machine count ----------------

func BenchmarkTable5FullSimulation(b *testing.B) {
	ctx, pts := grid(b)
	best := experiments.BestPerK(pts)
	b.ResetTimer()
	speedups := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, k := range []int{2, 3, 4} {
			p := best[k]
			rec, err := ctx.PartitionParts(k, p.B)
			if err != nil {
				b.Fatal(err)
			}
			res, err := clustersim.Run(clustersim.Config{
				NL: ctx.ED.Netlist, GateParts: rec, K: k,
				Vectors: sim.RandomVectors{Seed: 1}, Cycles: ctx.FullCycles,
			})
			if err != nil {
				b.Fatal(err)
			}
			speedups[k] = res.Speedup
		}
	}
	b.ReportMetric(speedups[2], "speedup-k2")
	b.ReportMetric(speedups[3], "speedup-k3")
	b.ReportMetric(speedups[4], "speedup-k4")
}

// ---- Figures 6 and 7: messages and rollbacks ------------------------------

func BenchmarkFig6Messages(b *testing.B) {
	ctx, _ := grid(b)
	rec, err := ctx.PartitionParts(4, 7.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var msgs uint64
	for i := 0; i < b.N; i++ {
		res, err := clustersim.Run(clustersim.Config{
			NL: ctx.ED.Netlist, GateParts: rec, K: 4,
			Vectors: sim.RandomVectors{Seed: 1}, Cycles: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Messages
	}
	b.ReportMetric(float64(msgs), "messages")
}

func BenchmarkFig7Rollbacks(b *testing.B) {
	ctx, _ := grid(b)
	rec, err := ctx.PartitionParts(4, 7.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rollbacks uint64
	for i := 0; i < b.N; i++ {
		res, err := clustersim.Run(clustersim.Config{
			NL: ctx.ED.Netlist, GateParts: rec, K: 4,
			Vectors: sim.RandomVectors{Seed: 1}, Cycles: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		rollbacks = res.Rollbacks
	}
	b.ReportMetric(float64(rollbacks), "rollbacks")
}

// ---- component micro-benchmarks -------------------------------------------

func BenchmarkVerilogParse(b *testing.B) {
	workload(b)
	b.SetBytes(int64(len(fixtureSrc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verilog.Parse(fixtureSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkElaborate elaborates the 17,776-gate SoC of the pipeline
// benchmark and the decoders of scale_test.go's smaller two sizes.
func BenchmarkElaborate(b *testing.B) {
	circuits := []*gen.Circuit{gen.ViterbiSoC(gen.DefaultSoC)}
	for _, sz := range elabSizes[:2] {
		circuits = append(circuits, gen.Viterbi(sz.cfg))
	}
	for _, c := range circuits {
		d, err := verilog.Parse(c.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := elab.Elaborate(d, c.Top); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHypergraphBuild(b *testing.B) {
	ed := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hypergraph.BuildHierarchical(ed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConePartition(b *testing.B) {
	ed := workload(b)
	h, err := hypergraph.BuildHierarchical(ed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cone.Partition(ed, h, 4)
	}
}

func BenchmarkFMRefinePass(b *testing.B) {
	ed := workload(b)
	h, err := hypergraph.BuildHierarchical(ed)
	if err != nil {
		b.Fatal(err)
	}
	base := cone.Partition(ed, h, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := base.Clone()
		fm.RefinePair(h, a, 0, 1, nil, 1)
	}
}

// seqFixtures are the sequential benchmarks' rows: the ledger's two kernel
// circuits at their cycle counts (soc_tw_aligned, viterbi_tw_rollback),
// stimulus seed 1.
var seqFixtures = []struct {
	name    string
	circuit func() *gen.Circuit
	cycles  uint64
}{
	{"soc", func() *gen.Circuit { return gen.ViterbiSoC(gen.DefaultSoC) }, 2000},
	{"viterbi", func() *gen.Circuit { return gen.Viterbi(gen.DefaultViterbi) }, 1500},
}

// benchSequential runs one sub-benchmark per seqFixtures row, timing run
// over the row's netlist and cycles, and reports ns/cycle.
func benchSequential(b *testing.B, run func(b *testing.B, nl *netlist.Netlist, cycles uint64)) {
	for _, f := range seqFixtures {
		b.Run(f.name, func(b *testing.B) {
			ed, err := f.circuit().Elaborate()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			run(b, ed.Netlist, f.cycles)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*f.cycles), "ns/cycle")
		})
	}
}

// BenchmarkSequentialSimulator is the event-driven engine, sim.Simulator,
// the pipeline benchmark's sequential denominator.
func BenchmarkSequentialSimulator(b *testing.B) {
	benchSequential(b, func(b *testing.B, nl *netlist.Netlist, cycles uint64) {
		s, err := sim.New(nl)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var events uint64
		for i := 0; i < b.N; i++ {
			s.Reset()
			n, err := s.Run(sim.RandomVectors{Seed: 1}, cycles)
			if err != nil {
				b.Fatal(err)
			}
			events = n
		}
		b.ReportMetric(float64(events)/float64(cycles), "events/cycle")
	})
}

// BenchmarkSequentialSweep is the levelized cycle sweep, sim.Sweep: every
// combinational gate once a cycle in topological order, then the latch.
// Each iteration steps a fresh sweep; compiling it is not timed.
func BenchmarkSequentialSweep(b *testing.B) {
	benchSequential(b, func(b *testing.B, nl *netlist.Netlist, cycles uint64) {
		src := sim.RandomVectors{Seed: 1}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sw, err := sim.NewSweep(nl)
			if err != nil {
				b.Fatal(err)
			}
			vec := make([]bool, len(sw.PIs))
			b.StartTimer()
			for c := uint64(0); c < cycles; c++ {
				src.Vector(c, vec)
				sw.Step(vec)
			}
		}
	})
}

// BenchmarkRandomVectors is the per-cycle cost of the paper's stimulus at
// a few vector widths: the viterbi and SoC designs read 3 and 5 inputs,
// the 32-bit multiplier 65, and 700 is past math/rand's 607-word register.
func BenchmarkRandomVectors(b *testing.B) {
	for _, width := range []int{4, 64, 700} {
		b.Run(fmt.Sprintf("w=%d", width), func(b *testing.B) {
			src, vec := sim.RandomVectors{Seed: 1}, make([]bool, width)
			for i := 0; i < b.N; i++ {
				src.Vector(uint64(i), vec)
			}
		})
	}
}

func BenchmarkTimeWarpKernel(b *testing.B) {
	ed := workload(b)
	res, err := partition.Multiway(ed, partition.Options{K: 2, B: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timewarp.Run(timewarp.Config{
			NL: ed.Netlist, GateParts: res.GateParts, K: 2,
			Vectors: sim.RandomVectors{Seed: 1}, Cycles: 50,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterForward is the kernel's forward path alone: the default
// two-channel SoC split k=2 along its channels (cut 0), so no message is
// sent and nothing rolls back. Every cluster sweeps its cycle (sim.Settle
// over its slice of the topological table, fused), and neither of these can
// be sent an event, so neither keeps a rollback record: what is timed is the
// sweep without state saving, and ns/event is wall time per gate
// evaluation, every own gate once a cycle — a count of netlist gates, not of
// the fused records that evaluate them. BenchmarkSerialCutRun
// (internal/timewarp) times the same sweep with records, messages and
// rollbacks; TestRunAllocs' forward row (internal/timewarp) bounds this
// one's allocations.
func BenchmarkClusterForward(b *testing.B) {
	ed, err := gen.ViterbiSoC(gen.DefaultSoC).Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	parts, err := partition.Multiway(ed, partition.Options{K: 2, B: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if parts.Cut != 0 {
		b.Fatalf("aligned SoC partition has cut %d, want 0", parts.Cut)
	}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := timewarp.Run(timewarp.Config{
			NL: ed.Netlist, GateParts: parts.GateParts, K: 2,
			Vectors: sim.RandomVectors{Seed: 1}, Cycles: 500,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Messages != 0 {
			b.Fatalf("forward-only run sent %d messages", res.Stats.Messages)
		}
		events += res.Stats.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

func BenchmarkClusterModel(b *testing.B) {
	ed := workload(b)
	res, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clustersim.Run(clustersim.Config{
			NL: ed.Netlist, GateParts: res.GateParts, K: 4,
			Vectors: sim.RandomVectors{Seed: 1}, Cycles: 200,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation benches (DESIGN.md §5) ---------------------------------------

// BenchmarkAblationPairingStrategies times one multiway run per pairing
// criterion and reports the cut each achieves.
func BenchmarkAblationPairingStrategies(b *testing.B) {
	ed := workload(b)
	strategies := []partition.PairingStrategy{
		partition.PairRandom, partition.PairExhaustive,
		partition.PairCutBased, partition.PairGainBased,
	}
	cuts := make([]int, len(strategies))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si, s := range strategies {
			res, err := partition.Multiway(ed, partition.Options{
				K: 3, B: 10, Strategy: s, Seed: 1, Restarts: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			cuts[si] = res.Cut
		}
	}
	b.ReportMetric(float64(cuts[0]), "cut-random")
	b.ReportMetric(float64(cuts[1]), "cut-exhaustive")
	b.ReportMetric(float64(cuts[2]), "cut-cutbased")
	b.ReportMetric(float64(cuts[3]), "cut-gainbased")
}

// BenchmarkAblationHierarchyDestruction runs the 2-channel SoC study: cut
// at k=2 (channel-aligned) vs k=4 (trellis-splitting).
func BenchmarkAblationHierarchyDestruction(b *testing.B) {
	c := gen.ViterbiSoC(gen.SoCConfig{
		Channels:      2,
		Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
		ScramblerBits: 16,
		CRCBits:       8,
	})
	ed, err := c.Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cut2, cut4 int
	for i := 0; i < b.N; i++ {
		r2, err := partition.Multiway(ed, partition.Options{K: 2, B: 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		r4, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cut2, cut4 = r2.Cut, r4.Cut
	}
	b.ReportMetric(float64(cut2), "cut-k2")
	b.ReportMetric(float64(cut4), "cut-k4")
}

// BenchmarkAblationActivityWeights times the activity-profiled
// partitioning pipeline (the paper's future-work load metric).
func BenchmarkAblationActivityWeights(b *testing.B) {
	ed := workload(b)
	s, err := sim.New(ed.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(sim.RandomVectors{Seed: 1}, 200); err != nil {
		b.Fatal(err)
	}
	var max uint64 = 1
	for _, n := range s.EvalCount {
		if n > max {
			max = n
		}
	}
	weights := make([]int, len(s.EvalCount))
	for i, n := range s.EvalCount {
		weights[i] = int(n*15/max) + 1
	}
	b.ResetTimer()
	var cut int
	for i := 0; i < b.N; i++ {
		res, err := partition.Multiway(ed, partition.Options{
			K: 3, B: 10, Seed: 1, GateWeights: weights, Restarts: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		cut = res.Cut
	}
	b.ReportMetric(float64(cut), "cut-activity")
}

// ---- campaign engine benches (parallel pre-simulation) ---------------------

// campaignConfig builds a ≥ 4×4 (k, b) grid at pre-simulation scale, the
// workload of the paper's §3.4 selection loop.
func campaignConfig(b *testing.B, workers int) *presim.Config {
	return &presim.Config{
		Design:   workload(b),
		Ks:       []int{2, 3, 4, 5},
		Bs:       []float64{5, 7.5, 10, 12.5},
		Cycles:   200,
		Seed:     1,
		Restarts: 2,
		Workers:  workers,
	}
}

func benchBruteForce(b *testing.B, workers int) {
	cfg := campaignConfig(b, workers)
	b.ResetTimer()
	var best *presim.Point
	for i := 0; i < b.N; i++ {
		_, p, err := presim.BruteForce(cfg)
		if err != nil {
			b.Fatal(err)
		}
		best = p
	}
	b.ReportMetric(best.Speedup, "best-speedup")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkCampaignBruteForceSequential is the Workers=1 baseline of the
// acceptance comparison; BenchmarkCampaignBruteForceParallel must beat it
// ≥ 2× wall-clock on a multi-core runner while returning identical points.
func BenchmarkCampaignBruteForceSequential(b *testing.B) {
	benchBruteForce(b, 1)
}

func BenchmarkCampaignBruteForceParallel(b *testing.B) {
	benchBruteForce(b, runtime.GOMAXPROCS(0))
}

// BenchmarkCampaignHeuristicParallel walks the heuristic's k-rows on a
// GOMAXPROCS pool.
func BenchmarkCampaignHeuristicParallel(b *testing.B) {
	cfg := campaignConfig(b, runtime.GOMAXPROCS(0))
	b.ResetTimer()
	var visits int
	for i := 0; i < b.N; i++ {
		_, visited, err := presim.Heuristic(cfg)
		if err != nil {
			b.Fatal(err)
		}
		visits = len(visited)
	}
	b.ReportMetric(float64(visits), "presim-runs")
}

func benchMultiwayRestarts(b *testing.B, workers int) {
	ed := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Multiway(ed, partition.Options{
			K: 4, B: 7.5, Seed: 1, Restarts: 8, Workers: workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(workers), "workers")
}

func BenchmarkMultiwayRestartsSequential(b *testing.B) {
	benchMultiwayRestarts(b, 1)
}

func BenchmarkMultiwayRestartsParallel(b *testing.B) {
	benchMultiwayRestarts(b, runtime.GOMAXPROCS(0))
}

// ---- causality recorder (DESIGN.md §11) ------------------------------------

// BenchmarkTimeWarpCausalityOn runs the kernel on the 2-channel SoC at k=4
// with the metrics observer and the per-event lineage recorder (vsim
// -blame) attached, so the cost of turning blame analysis on stays
// visible. TestRunAllocs (internal/timewarp) bounds its allocations;
// obs.on_off_ratio in the pipeline benchmark reports the observer's
// overhead alone.
func BenchmarkTimeWarpCausalityOn(b *testing.B) {
	ed, err := gen.ViterbiSoC(gen.SoCConfig{
		Channels:      2,
		Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
		ScramblerBits: 12,
		CRCBits:       8,
	}).Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	pr, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 1, Restarts: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timewarp.Run(timewarp.Config{
			NL: ed.Netlist, GateParts: pr.GateParts, K: 4,
			Vectors: sim.RandomVectors{Seed: 1}, Cycles: 100,
			Obs: obs.New(obs.Options{}), Causality: causalitypkg.New(),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- distributed federation overhead (DESIGN.md §16) ------------------------

// benchDistFederation runs a full 2-worker distributed round trip in one
// process: coordinator handshake, worker elaboration, TCP mesh, the GVT
// round protocol, result merge. The instrumented variant additionally
// instruments every worker and ships its trace-ring tail to the
// coordinator on the round cadence — the delta between the pair is what
// worker-side observability costs (the counters ride the round reports
// on both sides). TestDistRunAllocs (internal/timewarp)
// bounds the pair's allocations.
func benchDistFederation(b *testing.B, instrumented bool) {
	ed := workload(b)
	pr, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	spec := &timewarp.DistSpec{
		Source:    fixtureSrc,
		Top:       "viterbi",
		GateParts: pr.GateParts,
		K:         4,
		Cycles:    200,
		VecSeed:   1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := timewarp.CoordConfig{
			Spec:     spec,
			Workers:  2,
			Watchdog: 10 * time.Second,
		}
		if instrumented {
			cfg.Obs = obs.New(obs.Options{})
		}
		co, err := timewarp.NewCoordinator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			opts := timewarp.WorkerOptions{Coordinator: co.Addr()}
			if instrumented {
				opts.Obs = obs.New(obs.Options{})
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if werr := timewarp.RunWorker(opts); werr != nil {
					b.Error(werr)
				}
			}()
		}
		if _, err := co.Run(); err != nil {
			b.Fatal(err)
		}
		wg.Wait()
	}
}

func BenchmarkDistFederationObsOff(b *testing.B) { benchDistFederation(b, false) }
func BenchmarkDistFederationObsOn(b *testing.B)  { benchDistFederation(b, true) }
