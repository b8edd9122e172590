// Package presim implements pre-simulation (paper §3.4, after Chamberlain
// & Henderson 1994): short simulation runs evaluate the trade-off between
// load balance and communication for each candidate (k, b) pair, and the
// partition with the best pre-simulation speedup is used for the full run.
//
// Both the brute-force sweep (all k×b combinations, paper Table 3) and the
// heuristic search (paper fig. 3: start from the maximum machine count,
// grow b until the speedup first drops) are provided. Either search runs
// on a bounded worker pool (Config.Workers) and returns results identical
// to the sequential ones; see campaign.go.
package presim

import (
	"sync"
	"time"

	"repro/internal/clustersim"
	"repro/internal/elab"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Config drives a pre-simulation campaign.
type Config struct {
	Design *elab.Design
	// Ks are the candidate machine counts (descending order is used by
	// the heuristic, mirroring "start with the maximum number of
	// processors").
	Ks []int
	// Bs are the candidate balance factors in percent, ascending.
	Bs []float64
	// Cycles is the pre-simulation length (the paper uses 10,000 random
	// vectors against 1,000,000 for the full run).
	Cycles uint64
	// Seed selects the random vector stream.
	Seed int64
	// Costs is the cluster cost model.
	Costs clustersim.Costs
	// Partition options forwarded to the multiway partitioner.
	Strategy partition.PairingStrategy
	Restarts int
	// Workers bounds the campaign worker pool (0 → GOMAXPROCS, 1 →
	// sequential), which runs over grid cells in BruteForce and over k-rows
	// in Heuristic. Both return identical points and best for every
	// Workers value; see campaign.go.
	Workers int
	// Obs, when enabled, records one campaign-track span per evaluated
	// (k, b) point (with partition/simulation wall split) and forwards
	// itself to the partitioner for phase spans. Nil disables.
	Obs *obs.Observer

	// evalFn substitutes the evaluator in tests (nil → real pipeline).
	evalFn func(k int, b float64) (*Point, error)

	// waves is the campaign-shared wave bank whose traces the cluster
	// model folds, built lazily on the first evaluation. The traces are
	// partition-independent (they depend only on the netlist and the
	// vector stream), so one replay of each wave serves every point.
	wavesOnce sync.Once
	waves     *sim.WaveBank
	wavesErr  error
}

// waveBank lazily builds the campaign's shared wave bank.
func (cfg *Config) waveBank() (*sim.WaveBank, error) {
	cfg.wavesOnce.Do(func() {
		cfg.waves, cfg.wavesErr = sim.NewWaveBank(
			cfg.Design.Netlist, sim.RandomVectors{Seed: cfg.Seed}, cfg.Cycles)
	})
	return cfg.waves, cfg.wavesErr
}

// Point is the outcome of one (k, b) pre-simulation.
type Point struct {
	K         int
	B         float64
	Cut       int
	Balanced  bool
	SimTime   float64 // modeled parallel time
	SeqTime   float64 // modeled sequential time
	Speedup   float64
	Messages  uint64
	Rollbacks uint64
	// CritPath and BoundSpeedup are the modeled critical path of the
	// partitioned trace and the speedup ceiling it implies — the causal
	// quality of a (k, b) point independent of communication costs.
	CritPath     float64
	BoundSpeedup float64
	GateParts    []int32 `json:"-"` // the partition evaluated (for reuse in full runs); omitted from -json dumps
	// PartWall and SimWall are the wall-clock durations this point spent
	// in the partitioner and in the cluster model.
	PartWall time.Duration
	SimWall  time.Duration
}

// eval dispatches to the test stub or the real pipeline and records the
// point's span.
func (cfg *Config) eval(k int, b float64) (*Point, error) {
	f := cfg.evalFn
	if f == nil {
		f = func(k int, b float64) (*Point, error) { return Evaluate(cfg, k, b) }
	}
	t0 := cfg.Obs.Start()
	p, err := f(k, b)
	if err == nil {
		cfg.Obs.Span(obs.TrackCampaign, "presim.point", t0,
			obs.Arg{Key: "k", Val: float64(k)},
			obs.Arg{Key: "b", Val: b},
			obs.Arg{Key: "speedup", Val: p.Speedup})
	}
	return p, err
}

// Evaluate partitions the design for (k, b) and pre-simulates it.
func Evaluate(cfg *Config, k int, b float64) (*Point, error) {
	t0 := time.Now()
	pr, err := partition.Multiway(cfg.Design, partition.Options{
		K: k, B: b, Strategy: cfg.Strategy, Restarts: cfg.Restarts,
		// A campaign's pool is the only pool inside it: the restarts of
		// every point it evaluates run sequentially.
		Workers: 1,
		Obs:     cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	partWall := time.Since(t0)
	t1 := time.Now()
	bank, err := cfg.waveBank()
	if err != nil {
		return nil, err
	}
	res, err := clustersim.Run(clustersim.Config{
		NL:        cfg.Design.Netlist,
		GateParts: pr.GateParts,
		K:         k,
		Vectors:   sim.RandomVectors{Seed: cfg.Seed},
		Cycles:    cfg.Cycles,
		Costs:     cfg.Costs,
		Waves:     bank,
	})
	if err != nil {
		return nil, err
	}
	return &Point{
		K: k, B: b, Cut: pr.Cut, Balanced: pr.Balanced,
		SimTime: res.ParTime, SeqTime: res.SeqTime, Speedup: res.Speedup,
		Messages: res.Messages, Rollbacks: res.Rollbacks,
		CritPath: res.CritPath, BoundSpeedup: res.BoundSpeedup,
		GateParts: pr.GateParts,
		PartWall:  partWall, SimWall: time.Since(t1),
	}, nil
}

// betterPoint is the documented best-point ordering: larger speedup wins;
// on equal speedup, smaller k, then smaller b — so the chosen best never
// depends on the order the candidate lists were given in.
func betterPoint(p, best *Point) bool {
	if p.Speedup != best.Speedup {
		return p.Speedup > best.Speedup
	}
	if p.K != best.K {
		return p.K < best.K
	}
	return p.B < best.B
}

// BestPerK returns, for each k, the point with the best speedup — the
// paper's Table 4 (ties to smaller b).
func BestPerK(points []*Point) map[int]*Point {
	best := make(map[int]*Point)
	for _, p := range points {
		if cur, ok := best[p.K]; !ok || betterPoint(p, cur) {
			best[p.K] = p
		}
	}
	return best
}
