package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/clustersim"
	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/presim"
	"repro/internal/sim"
	"repro/internal/timewarp"
	"repro/internal/verilog"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// prepare generates the inputs from the seed. It is the part of
	// set-up that is not the warm-up repetition.
	prepare(seed int64) error
	// repetition runs the pipeline once, adds one sample per metric to
	// r.out and counts its oracle checks on r.ck. An error means the
	// program under test refused to run, which no workload expects.
	repetition(r *rep) error
}

// rep is the context of one repetition.
type rep struct {
	index int // alternates the order of the paired sequential run
	// tr times the calls into the layers. When it records (the traced
	// run), the repetition also runs its attribution-only probes after
	// the pipeline, outside every timed number.
	tr  *tracer
	out samples
	ck  *checker
}

// scale selects the input sizes: full is what BENCHMARK.json measures,
// smoke is the seconds-long variant the self-test runs inside tier-1.
type scale string

const (
	scaleFull  scale = "full"
	scaleSmoke scale = "smoke"
)

// smokeSoC and smokeViterbi are the small fixtures of the repo's own
// tests (bench_test.go's socK4, the fuzz harness's decoder).
var (
	smokeViterbi = gen.ViterbiConfig{K: 4, W: 4, TB: 8}
	smokeSoC     = gen.SoCConfig{Channels: 2, Viterbi: smokeViterbi, ScramblerBits: 12, CRCBits: 8}
)

// partitionerSeed is the seed option handed to every partitioner. It is a
// setting of the program, not an input: -seed draws the stimulus, and a
// partition that changed with it would move every kernel number by more
// than any bound (on the default decoder the k=2 cut, and with it the
// rolled-back share, differs by a third between partitioner seeds).
const partitionerSeed = 1

// workloadNames fixes the order and the names later issues cite.
var workloadNames = []string{"soc_tw_aligned", "viterbi_tw_rollback", "soc_dist_split", "partition_campaign"}

func newWorkload(name string, sc scale) (workload, error) {
	// The campaign pre-simulates the SoC's decoder core, half the gates
	// of the default decoder, to keep one campaign near four seconds.
	soc, vit, core, mul := gen.DefaultSoC, gen.DefaultViterbi, gen.DefaultSoC.Viterbi, 32
	if sc == scaleSmoke {
		soc, vit, core, mul = smokeSoC, smokeViterbi, smokeViterbi, 8
	}
	pick := func(full, smoke uint64) uint64 {
		if sc == scaleSmoke {
			return smoke
		}
		return full
	}
	switch name {
	case "soc_tw_aligned":
		return &kernelWorkload{id: name, circuit: func() *gen.Circuit { return gen.ViterbiSoC(soc) },
			k: 2, b: 10, cycles: pick(2000, 60)}, nil
	case "viterbi_tw_rollback":
		return &kernelWorkload{id: name, circuit: func() *gen.Circuit { return gen.Viterbi(vit) },
			k: 2, b: 10, cycles: pick(1500, 100), obsProbe: true}, nil
	case "soc_dist_split":
		return &kernelWorkload{id: name, circuit: func() *gen.Circuit { return gen.ViterbiSoC(soc) },
			k: 4, b: 10, cycles: pick(1000, 60), distWorkers: 2}, nil
	case "partition_campaign":
		return &campaignWorkload{
			targets: []campaignTarget{
				// k=8 on the SoC alone costs as much as the rest of the
				// campaign; the multiplier carries the k=8 column.
				{circuit: func() *gen.Circuit { return gen.ViterbiSoC(soc) }, ks: []int{2, 4}},
				{circuit: func() *gen.Circuit { return gen.Multiplier(mul) }, ks: []int{2, 4, 8}},
			},
			b:            10,
			presim:       func() *gen.Circuit { return gen.Viterbi(core) },
			presimKs:     []int{2, 3, 4},
			presimBs:     []float64{7.5, 10, 12.5, 15},
			presimCycles: pick(400, 40),
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// front is the source → netlist front end every workload starts with.
func front(tr *tracer, parent open, c *gen.Circuit) (*elab.Design, error) {
	var d *verilog.Design
	if _, err := tr.call("verilog.parse", parent, func() (err error) {
		d, err = verilog.Parse(c.Source)
		return err
	}); err != nil {
		return nil, err
	}
	var ed *elab.Design
	if _, err := tr.call("elab.elaborate", parent, func() (err error) {
		ed, err = elab.Elaborate(d, c.Top)
		return err
	}); err != nil {
		return nil, err
	}
	return ed, nil
}

// paired runs the two sides of one repetition. The order alternates so
// that drift of the machine within a repetition falls on both sides of
// their ratio equally often.
func paired(index int, pipeline, seq func() error) error {
	first, second := pipeline, seq
	if index%2 == 1 {
		first, second = seq, pipeline
	}
	if err := first(); err != nil {
		return err
	}
	return second()
}

// allocMeter reads the allocation counters around a pipeline.
type allocMeter struct{ before runtime.MemStats }

func (m *allocMeter) start() { runtime.ReadMemStats(&m.before) }

func (m *allocMeter) stop(out samples) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	out.add("pipeline_alloc_mb", float64(after.TotalAlloc-m.before.TotalAlloc)/(1<<20))
	out.add("pipeline_allocs", float64(after.Mallocs-m.before.Mallocs))
}

// ---- the three kernel workloads --------------------------------------------

// kernelWorkload drives the paper's flow on one design: source text →
// parse → elaborate → partition.Multiway → a pre-simulation of cycles/10
// on the cluster model → the parallel run → the waveform digest, paired
// with the sequential simulator on the same stimulus.
type kernelWorkload struct {
	id      string
	circuit func() *gen.Circuit
	k       int
	b       float64
	cycles  uint64
	// distWorkers > 0 routes the parallel run through
	// timewarp.NewCoordinator and that many timewarp.RunWorker goroutines
	// over TCP loopback instead of timewarp.Run.
	distWorkers int
	// obsProbe adds the traced run's observer on/off pair.
	obsProbe bool

	seed int64
	src  *gen.Circuit
	// oracle is the sequential side's own elaboration of the source, so
	// the paired run can go first without borrowing the pipeline's.
	oracle *elab.Design
}

func (w *kernelWorkload) prepare(seed int64) error {
	w.seed = seed
	w.src = w.circuit()
	ed, err := w.src.Elaborate()
	w.oracle = ed
	return err
}

func (w *kernelWorkload) vectors() sim.RandomVectors { return sim.RandomVectors{Seed: w.seed} }

func (w *kernelWorkload) repetition(r *rep) error {
	var (
		seqWaves  map[netlist.NetID][]bool
		seqEvents uint64
		seqWall   time.Duration
	)
	seq := func() (err error) {
		seqWaves, seqEvents, seqWall, err = w.sequential(r, root, "sim.run", w.oracle.Netlist.POs)
		return err
	}
	var run *kernelRun
	pipeline := func() (err error) {
		run, err = w.pipeline(r)
		return err
	}
	if err := paired(r.index, pipeline, seq); err != nil {
		return err
	}

	run.seqDigest, run.seqEvents = waveDigest(w.oracle.Netlist.POs, seqWaves), float64(seqEvents)
	checkKernelRun(r.ck, w.id, run.digest, run.res, run.seqDigest, w.cycles)

	speedup := seqWall.Seconds() / run.parWall.Seconds()
	r.out.add("speedup_vs_seq", speedup)
	r.out.add("pipeline_over_seq", run.wall.Seconds()/seqWall.Seconds())
	r.out.add("sim.events", float64(seqEvents))
	r.out.add("sim.events_per_s", float64(seqEvents)/seqWall.Seconds())
	r.out.add("clustersim.modeled_over_real", run.model.Speedup/speedup)
	committed := "timewarp.committed_events_per_s"
	if w.distWorkers > 0 {
		committed = "dist.committed_events_per_s"
	}
	r.out.add(committed, float64(seqEvents)/run.parWall.Seconds())
	if r.tr.keep {
		return w.probe(r, run)
	}
	return nil
}

// sequential runs the oracle under a span and returns its waveforms of
// the observed nets, its event count and its wall time.
func (w *kernelWorkload) sequential(r *rep, parent open, spanName string, observe []netlist.NetID) (waves map[netlist.NetID][]bool, events uint64, wall time.Duration, err error) {
	wall, err = r.tr.call(spanName, parent, func() (err error) {
		waves, events, err = runSeq(w.oracle.Netlist, w.vectors(), w.cycles, observe)
		return err
	})
	return waves, events, wall, err
}

// kernelRun is what one repetition leaves behind for the checks and probes.
type kernelRun struct {
	// The paired sequential run's waveform digest and event count.
	seqDigest [sha256.Size]byte
	seqEvents float64

	ed      *elab.Design
	parts   *partition.Result
	model   *clustersim.Result
	res     *timewarp.Result
	digest  [sha256.Size]byte // of the parallel run's committed waveforms
	parWall time.Duration     // the parallel run alone
	wall    time.Duration     // the whole pipeline
}

func (w *kernelWorkload) pipeline(r *rep) (*kernelRun, error) {
	run := &kernelRun{}
	var mem allocMeter
	mem.start()
	p := r.tr.begin("pipeline", root, 0)

	ed, err := front(r.tr, p, w.src)
	if err != nil {
		return nil, err
	}
	run.ed = ed
	if _, err := r.tr.call("partition.multiway", p, func() (err error) {
		run.parts, err = partition.Multiway(ed, partition.Options{K: w.k, B: w.b, Seed: partitionerSeed})
		return err
	}); err != nil {
		return nil, err
	}
	modelWall, err := r.tr.call("clustersim.run", p, func() (err error) {
		run.model, err = clustersim.Run(clustersim.Config{
			NL: ed.Netlist, GateParts: run.parts.GateParts, K: w.k,
			Vectors: w.vectors(), Cycles: w.cycles / 10,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	if w.distWorkers > 0 {
		run.parWall, err = r.tr.call("dist.run", p, func() (err error) {
			run.res, err = runDistributed(r.tr, p, &timewarp.DistSpec{
				Source: w.src.Source, Top: w.src.Top, GateParts: run.parts.GateParts,
				K: w.k, Cycles: w.cycles, VecSeed: w.seed,
			}, w.distWorkers)
			return err
		})
	} else {
		run.parWall, err = r.tr.call("timewarp.run", p, func() (err error) {
			run.res, err = timewarp.Run(w.kernelConfig(ed.Netlist, run.parts.GateParts))
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	r.tr.call("harness.digest", p, func() error {
		run.digest = waveDigest(ed.Netlist.POs, run.res.Observed)
		return nil
	})

	run.wall = r.tr.end(p)
	mem.stop(r.out)
	r.out.add("harness.pipeline_wall_s", run.wall.Seconds())
	r.out.add("modeled_speedup", run.model.Speedup)

	r.out.add("verilog.src_bytes", float64(len(w.src.Source)))
	r.out.add("elab.gates", float64(len(ed.Netlist.Gates)))
	r.out.add("partition.cut", float64(run.parts.Cut))
	r.out.add("partition.imbalance", imbalance(run.parts.Loads))
	r.out.add("partition.flattened", float64(run.parts.Flattened))
	addModel(r.out, run.model, modelWall)
	st := run.res.Stats
	if w.distWorkers > 0 {
		r.out.add("dist.wire_frames", float64(run.res.WireFramesSent))
		r.out.add("dist.rolled_back_frac", float64(st.RolledBackEvents)/float64(st.Events))
	} else {
		addKernelStats(r.out, run.res)
	}
	return run, nil
}

func (w *kernelWorkload) kernelConfig(nl *netlist.Netlist, parts []int32) timewarp.Config {
	return timewarp.Config{NL: nl, GateParts: parts, K: w.k, Vectors: w.vectors(), Cycles: w.cycles}
}

// addModel records the cluster model's deterministic counts and its
// throughput over the given wall time.
func addModel(out samples, m *clustersim.Result, wall time.Duration) {
	out.add("clustersim.events_per_s", float64(m.Events)/wall.Seconds())
	out.add("clustersim.messages", float64(m.Messages))
	out.add("clustersim.rollbacks", float64(m.Rollbacks))
	out.add("clustersim.bound_speedup", m.BoundSpeedup)
}

// addKernelStats records the in-process kernel's counters. They depend on
// goroutine scheduling, so they are medians, not exact values.
func addKernelStats(out samples, res *timewarp.Result) {
	st := res.Stats
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out.add("timewarp.events_executed", float64(st.Events))
	out.add("timewarp.rolled_back_frac", frac(st.RolledBackEvents, st.Events))
	out.add("timewarp.efficiency", frac(st.Events-st.RolledBackEvents, st.Events))
	out.add("timewarp.rollbacks", float64(st.Rollbacks))
	out.add("timewarp.messages", float64(st.Messages))
	out.add("timewarp.anti_messages", float64(st.AntiMessages))
	out.add("timewarp.checkpoints", float64(st.Checkpoints))
	out.add("timewarp.max_straggler_depth", float64(st.MaxStragglerDepth))
	out.add("timewarp.mean_batch", frac(st.BatchedEvents, st.Batches))
	out.add("timewarp.pool_hit_frac", frac(st.PoolHits, st.PoolHits+st.PoolMisses))
	var max, sum uint64
	for _, c := range res.PerCluster {
		sum += c.Events
		if c.Events > max {
			max = c.Events
		}
	}
	out.add("timewarp.load_imbalance", frac(max*uint64(len(res.PerCluster)), sum))
}

// runDistributed is the other driver of the same kernel: a coordinator
// and its workers inside this process, talking over TCP loopback exactly
// as cmd/vsim -mode dist and cmd/vsimd do across processes.
func runDistributed(tr *tracer, parent open, spec *timewarp.DistSpec, workers int) (*timewarp.Result, error) {
	co, err := timewarp.NewCoordinator(timewarp.CoordConfig{
		Spec: spec, Workers: workers,
		// Generous: the watchdog is there to end a wedged run, and a
		// loaded benchmark host must not trip it.
		Watchdog: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(track int) {
			o := tr.begin("dist.worker", parent, track)
			err := timewarp.RunWorker(timewarp.WorkerOptions{Coordinator: co.Addr()})
			tr.end(o)
			errs <- err
		}(i + 1)
	}
	res, err := co.Run()
	// Every worker returns once the coordinator finished or aborted.
	for i := 0; i < workers; i++ {
		if werr := <-errs; werr != nil && err == nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	return res, err
}

// ---- the partitioning campaign ----------------------------------------------

// campaignTarget is one design the three engines partition at every k.
type campaignTarget struct {
	circuit func() *gen.Circuit
	ks      []int
	src     *gen.Circuit
}

// campaignWorkload runs no kernel: three partitioning engines over a
// (design, k) grid, then the paper's heuristic pre-simulation search.
type campaignWorkload struct {
	targets      []campaignTarget
	b            float64
	presim       func() *gen.Circuit
	presimKs     []int
	presimBs     []float64
	presimCycles uint64

	seed      int64
	presimSrc *gen.Circuit
	oracle    *elab.Design // the pre-simulation design, for the paired sim.Run
}

func (w *campaignWorkload) vectors() sim.RandomVectors { return sim.RandomVectors{Seed: w.seed} }

func (w *campaignWorkload) prepare(seed int64) error {
	w.seed = seed
	for i := range w.targets {
		w.targets[i].src = w.targets[i].circuit()
	}
	w.presimSrc = w.presim()
	ed, err := w.presimSrc.Elaborate()
	w.oracle = ed
	return err
}

// campaignPartition is one engine's answer at one (design, k) point, kept
// for the checks that run after the timed region.
type campaignPartition struct {
	label string
	flat  *hypergraph.H
	k     int
	parts []int32
	cut   int
}

func (w *campaignWorkload) repetition(r *rep) error {
	var (
		seqEvents uint64
		seqWall   time.Duration
	)
	// The paired sequential run covers seqPoints pre-simulation lengths,
	// long enough to be a steady denominator.
	const seqPoints = 10
	seq := func() (err error) {
		seqWall, err = r.tr.call("sim.run", root, func() (err error) {
			_, seqEvents, err = runSeq(w.oracle.Netlist, w.vectors(), seqPoints*w.presimCycles, nil)
			return err
		})
		return err
	}
	var run *campaignRun
	pipeline := func() (err error) {
		run, err = w.pipeline(r)
		return err
	}
	if err := paired(r.index, pipeline, seq); err != nil {
		return err
	}

	for _, p := range run.partitions {
		checkPartition(r.ck, p.label, p.flat, p.k, w.b, p.parts, p.cut)
	}

	// On this workload the engine under test is the search: every point
	// it visits costs a partition and a pre-simulation, against plainly
	// simulating that many cycles on the sequential simulator.
	searchCyclesPerS := float64(len(run.visited)) * float64(w.presimCycles) / run.searchWall.Seconds()
	seqCyclesPerS := seqPoints * float64(w.presimCycles) / seqWall.Seconds()
	r.out.add("speedup_vs_seq", searchCyclesPerS/seqCyclesPerS)
	r.out.add("pipeline_over_seq", run.wall.Seconds()/seqWall.Seconds())
	r.out.add("sim.events", float64(seqEvents))
	r.out.add("sim.events_per_s", float64(seqEvents)/seqWall.Seconds())
	if r.tr.keep {
		return w.probe(r, run)
	}
	return nil
}

// campaignRun is what one campaign leaves behind for the checks and probes.
type campaignRun struct {
	designs      []*elab.Design // one per target
	presimDesign *elab.Design
	partitions   []campaignPartition
	best         *presim.Point
	visited      []*presim.Point
	searchWall   time.Duration // presim.Heuristic alone
	wall         time.Duration // the whole campaign
}

func (w *campaignWorkload) pipeline(r *rep) (*campaignRun, error) {
	run := &campaignRun{}
	var mem allocMeter
	mem.start()
	p := r.tr.begin("pipeline", root, 0)

	var srcBytes, gates, flatVertices, cutMultiway, cutFlat, cutNLevel, flattened int
	var worstImbalance float64
	for _, t := range w.targets {
		ed, err := front(r.tr, p, t.src)
		if err != nil {
			return nil, err
		}
		run.designs = append(run.designs, ed)
		srcBytes += len(t.src.Source)
		gates += len(ed.Netlist.Gates)
		var flat *hypergraph.H
		if _, err := r.tr.call("hypergraph.build_flat", p, func() (err error) {
			flat, err = hypergraph.BuildFlat(ed)
			return err
		}); err != nil {
			return nil, err
		}
		flatVertices += flat.NumVertices()
		for _, k := range t.ks {
			keep := func(engine string, parts []int32, cut int) {
				run.partitions = append(run.partitions, campaignPartition{
					label: fmt.Sprintf("%s %s k=%d", t.src.Name, engine, k),
					flat:  flat, k: k, parts: parts, cut: cut,
				})
			}
			var mw *partition.Result
			if _, err := r.tr.call("partition.multiway", p, func() (err error) {
				mw, err = partition.Multiway(ed, partition.Options{K: k, B: w.b, Seed: partitionerSeed})
				return err
			}); err != nil {
				return nil, err
			}
			keep("multiway", mw.GateParts, mw.Cut)
			cutMultiway += mw.Cut
			flattened += mw.Flattened
			if im := imbalance(mw.Loads); im > worstImbalance {
				worstImbalance = im
			}
			opts := multilevel.Options{K: k, B: w.b, Seed: partitionerSeed, Workers: 1}
			var ml *multilevel.Result
			if _, err := r.tr.call("multilevel.flat", p, func() (err error) {
				ml, err = multilevel.Partition(flat, opts)
				return err
			}); err != nil {
				return nil, err
			}
			keep("flat", ml.GateParts, ml.Cut)
			cutFlat += ml.Cut
			if _, err := r.tr.call("multilevel.nlevel", p, func() (err error) {
				ml, err = multilevel.PartitionN(flat, opts)
				return err
			}); err != nil {
				return nil, err
			}
			keep("n-level", ml.GateParts, ml.Cut)
			cutNLevel += ml.Cut
		}
	}

	ed, err := front(r.tr, p, w.presimSrc)
	if err != nil {
		return nil, err
	}
	run.presimDesign = ed
	srcBytes += len(w.presimSrc.Source)
	gates += len(ed.Netlist.Gates)
	run.searchWall, err = r.tr.call("presim.search", p, func() (err error) {
		run.best, run.visited, err = presim.Heuristic(&presim.Config{
			Design: ed, Ks: w.presimKs, Bs: w.presimBs, Cycles: w.presimCycles,
			Seed: w.seed, Restarts: 2, Workers: 1,
		})
		return err
	})
	if err != nil {
		return nil, err
	}

	run.wall = r.tr.end(p)
	mem.stop(r.out)
	r.out.add("harness.pipeline_wall_s", run.wall.Seconds())
	r.out.add("modeled_speedup", run.best.Speedup)

	r.out.add("verilog.src_bytes", float64(srcBytes))
	r.out.add("elab.gates", float64(gates))
	r.out.add("hypergraph.vertices_flat", float64(flatVertices))
	r.out.add("partition.cut", float64(cutMultiway))
	r.out.add("partition.imbalance", worstImbalance)
	r.out.add("partition.flattened", float64(flattened))
	r.out.add("multilevel.flat_cut", float64(cutFlat))
	r.out.add("multilevel.nlevel_cut", float64(cutNLevel))
	r.out.add("presim.points_visited", float64(len(run.visited)))
	r.out.add("presim.best_k", float64(run.best.K))
	r.out.add("presim.best_b", run.best.B)
	return run, nil
}
