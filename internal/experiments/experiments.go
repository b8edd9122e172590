// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the generated Viterbi workload: the cut-size grids
// (Tables 1 and 2), the pre-simulation grid (Table 3), the best partitions
// (Table 4), the full-simulation times (Table 5 / Figure 5), and the
// message and rollback counts (Figures 6 and 7), plus the heuristic
// pre-simulation study (§3.4) and the ablations DESIGN.md calls out.
//
// Both cmd/experiments and the repository benchmarks drive this package,
// so the printed rows and the benchmark-reported metrics come from the
// same code paths.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/clustersim"
	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/multilevel"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/presim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Context carries the workload and the experiment grid, and caches
// partitions so every table sees the same ones.
type Context struct {
	ED *elab.Design
	// Ks and Bs form the grid of the paper's tables.
	Ks []int
	Bs []float64
	// PresimCycles and FullCycles are the pre-simulation and full-run
	// vector counts (the paper: 10,000 and 1,000,000).
	PresimCycles uint64
	FullCycles   uint64
	Seed         int64
	Costs        clustersim.Costs
	// MLBalance is the balance setting for the multilevel baseline. The
	// paper ran hMetis with its default UBfactor regardless of b (its
	// Table 2 cut barely varies with b), reproduced here by a fixed 5%.
	MLBalance float64
	// Workers bounds the pre-simulation grid worker pool (0 → GOMAXPROCS,
	// 1 → sequential). The k-rows of the grid evaluate concurrently —
	// partitions at one k only carry over from tighter b at the same k, so
	// rows are independent — and the output is identical for any Workers.
	Workers int
	// Obs, when non-nil, traces partitioner phases and grid points
	// (cmd/experiments -trace / -metrics).
	Obs *obs.Observer

	mu    sync.Mutex // guards parts (rows touch disjoint keys, the map races)
	parts map[partKey]*partRec

	presimWavesOnce sync.Once
	presimWaves     *sim.WaveBank
	presimWavesErr  error
}

// presimWaveBank lazily records the wave bank shared by every grid point
// at PresimCycles.
func (c *Context) presimWaveBank() (*sim.WaveBank, error) {
	c.presimWavesOnce.Do(func() {
		c.presimWaves, c.presimWavesErr = sim.NewWaveBank(
			c.ED.Netlist, sim.RandomVectors{Seed: c.Seed}, c.PresimCycles)
	})
	return c.presimWaves, c.presimWavesErr
}

type partKey struct {
	k int
	b float64
}

type partRec struct {
	gateParts []int32
	cut       int
	balanced  bool
	loads     []int
}

// DefaultGrid is the paper's grid: k ∈ {2,3,4}, b ∈ {2.5 … 15}.
func DefaultGrid() ([]int, []float64) {
	return []int{2, 3, 4}, []float64{2.5, 5, 7.5, 10, 12.5, 15}
}

// NewDefaultContext elaborates the default Viterbi workload with the
// paper's grid and sensible repro-scale cycle counts.
func NewDefaultContext() (*Context, error) {
	c := gen.Viterbi(gen.DefaultViterbi)
	ed, err := c.Elaborate()
	if err != nil {
		return nil, err
	}
	ks, bs := DefaultGrid()
	ctx := &Context{
		ED:           ed,
		Ks:           ks,
		Bs:           bs,
		PresimCycles: 10000,
		FullCycles:   100000,
		Seed:         1,
		MLBalance:    5,
	}
	ctx.Init()
	return ctx, nil
}

// Init prepares a hand-constructed Context (NewDefaultContext calls it).
func (c *Context) Init() {
	if c.parts == nil {
		c.parts = make(map[partKey]*partRec)
	}
}

// PartitionParts returns the cached gate→partition mapping for (k, b).
func (c *Context) PartitionParts(k int, b float64) ([]int32, error) {
	rec, err := c.Partition(k, b)
	if err != nil {
		return nil, err
	}
	return rec.gateParts, nil
}

// Partition returns the design-driven partition for (k, b), cached, with
// monotone carry-over: since the balance windows nest as b grows, the best
// feasible partition found at a tighter b is kept when a fresh run at a
// looser b does not beat it (a real flow reuses partitions the same way,
// and it removes restart noise from the grid).
func (c *Context) Partition(k int, b float64) (*partRec, error) {
	c.mu.Lock()
	if rec, ok := c.parts[partKey{k, b}]; ok {
		c.mu.Unlock()
		return rec, nil
	}
	var prev *partRec
	for _, pb := range c.Bs {
		if pb >= b {
			break
		}
		if rec, ok := c.parts[partKey{k, pb}]; ok {
			prev = rec
		}
	}
	c.mu.Unlock()
	res, err := partition.Multiway(c.ED, partition.Options{
		K: k, B: b, Seed: c.Seed,
		// The grid is the headline result; spend extra restarts to keep
		// heuristic noise out of the tables.
		Restarts: 16,
		// The grid's pool is the only pool: the restarts run sequentially.
		Workers: 1,
		Obs:     c.Obs,
	})
	if err != nil {
		return nil, err
	}
	rec := &partRec{gateParts: res.GateParts, cut: res.Cut, balanced: res.Balanced, loads: res.Loads}
	if prev != nil && prev.balanced && prev.cut <= rec.cut {
		// Ties keep the carried partition so identical cuts always mean
		// identical partitions (and identical modeled times) across b.
		rec = prev
	}
	c.mu.Lock()
	c.parts[partKey{k, b}] = rec
	c.mu.Unlock()
	return rec, nil
}

// Table1 regenerates the paper's Table 1: hyperedge cut of the
// design-driven algorithm over the (k, b) grid.
func (c *Context) Table1() (*stats.Table, error) {
	t := stats.NewTable("k", "b", "Hyperedge cut")
	for _, k := range c.Ks {
		for _, b := range c.Bs {
			rec, err := c.Partition(k, b)
			if err != nil {
				return nil, err
			}
			t.AddRow(k, b, rec.cut)
		}
	}
	return t, nil
}

// Table2 regenerates the paper's Table 2: hyperedge cut of the multilevel
// (hMetis-substitute) algorithm on the flattened netlist. As in the paper,
// the baseline runs at its default balance setting, so its cut is
// essentially independent of b; the b column is kept for format parity.
func (c *Context) Table2() (*stats.Table, error) {
	t := stats.NewTable("k", "b", "Hyperedge cut")
	for _, k := range c.Ks {
		_, res, err := multilevel.PartitionFlat(c.ED, multilevel.Options{
			K: k, B: c.MLBalance, Seed: c.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, b := range c.Bs {
			t.AddRow(k, b, res.Cut)
		}
	}
	return t, nil
}

// GridPoint is one pre-simulation measurement.
type GridPoint struct {
	K         int
	B         float64
	Cut       int
	SimTime   float64
	SeqTime   float64
	Speedup   float64
	Messages  uint64
	Rollbacks uint64
	// CritPath / BoundSpeedup: the modeled causal critical path of the
	// point and the speedup ceiling it implies (see clustersim.Result).
	CritPath     float64
	BoundSpeedup float64
}

// PresimGrid runs the modeled pre-simulation over the whole grid — the
// data behind Table 3 and Figures 6 and 7. The k-rows evaluate on a
// worker pool (see Workers); within a row the b sweep stays sequential so
// the partition carry-over across b is preserved, and the returned point
// order, values and error are identical to the sequential sweep.
func (c *Context) PresimGrid() ([]*GridPoint, error) {
	out := make([]*GridPoint, len(c.Ks)*len(c.Bs))
	row := func(ki int) error {
		for bi, b := range c.Bs {
			p, err := c.evalPoint(c.Ks[ki], b, c.PresimCycles)
			if err != nil {
				return err
			}
			out[ki*len(c.Bs)+bi] = p
		}
		return nil
	}
	errs := make([]error, len(c.Ks))
	par.Each(len(c.Ks), c.Workers, func(ki int) { errs[ki] = row(ki) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *Context) evalPoint(k int, b float64, cycles uint64) (*GridPoint, error) {
	t0 := c.Obs.Start()
	rec, err := c.Partition(k, b)
	if err != nil {
		return nil, err
	}
	res, err := c.model(rec.gateParts, k, cycles, false)
	if err != nil {
		return nil, err
	}
	c.Obs.Span(obs.TrackCampaign, "grid.point", t0,
		obs.Arg{Key: "k", Val: float64(k)},
		obs.Arg{Key: "b", Val: b},
		obs.Arg{Key: "speedup", Val: res.Speedup})
	return &GridPoint{
		K: k, B: b, Cut: rec.cut,
		SimTime: res.ParTime, SeqTime: res.SeqTime, Speedup: res.Speedup,
		Messages: res.Messages, Rollbacks: res.Rollbacks,
		CritPath: res.CritPath, BoundSpeedup: res.BoundSpeedup,
	}, nil
}

// Table3 renders the pre-simulation grid (paper Table 3). Times are in
// model units (one unit = one gate evaluation).
func Table3(points []*GridPoint) *stats.Table {
	t := stats.NewTable("k", "b", "cut-size", "Simulation time", "Speedup")
	for _, p := range points {
		t.AddRow(p.K, p.B, p.Cut, p.SimTime, fmt.Sprintf("%.2f", p.Speedup))
	}
	return t
}

// BestPerK picks the best point per machine count (paper Table 4).
func BestPerK(points []*GridPoint) map[int]*GridPoint {
	best := make(map[int]*GridPoint)
	for _, p := range points {
		if cur, ok := best[p.K]; !ok || p.Speedup > cur.Speedup {
			best[p.K] = p
		}
	}
	return best
}

// Table4 renders the best partitions per k (paper Table 4).
func Table4(points []*GridPoint, ks []int) *stats.Table {
	t := stats.NewTable("k", "b", "cut-size", "Simulation time", "Speedup")
	best := BestPerK(points)
	for _, k := range ks {
		if p, ok := best[k]; ok {
			t.AddRow(p.K, p.B, p.Cut, p.SimTime, fmt.Sprintf("%.2f", p.Speedup))
		}
	}
	return t
}

// FullRuns runs the full-length simulation for the best (k, b) per machine
// count (paper Table 5 / Figure 5). It returns the table and the Figure 5
// series (simulation time per machine count, with the 1-machine
// sequential time first).
func (c *Context) FullRuns(points []*GridPoint) (*stats.Table, []float64, error) {
	t := stats.NewTable("k", "b", "cut-size", "Simulation time", "Speedup")
	best := BestPerK(points)
	var series []float64
	var seqTime float64
	for _, k := range c.Ks {
		p, ok := best[k]
		if !ok {
			continue
		}
		fp, err := c.evalPoint(p.K, p.B, c.FullCycles)
		if err != nil {
			return nil, nil, err
		}
		if seqTime == 0 {
			seqTime = fp.SeqTime
			series = append(series, seqTime)
		}
		t.AddRow(fp.K, fp.B, fp.Cut, fp.SimTime, fmt.Sprintf("%.2f", fp.Speedup))
		series = append(series, fp.SimTime)
	}
	return t, series, nil
}

// Fig6 renders the message counts of the pre-simulation grid (paper
// Figure 6: message number vs machine count, one series per b).
func Fig6(points []*GridPoint, ks []int, bs []float64) *stats.Table {
	return figTable(points, ks, bs, func(p *GridPoint) uint64 { return p.Messages })
}

// Fig7 renders the rollback counts (paper Figure 7).
func Fig7(points []*GridPoint, ks []int, bs []float64) *stats.Table {
	return figTable(points, ks, bs, func(p *GridPoint) uint64 { return p.Rollbacks })
}

func figTable(points []*GridPoint, ks []int, bs []float64, f func(*GridPoint) uint64) *stats.Table {
	headers := []string{"b \\ machines"}
	for _, k := range ks {
		headers = append(headers, fmt.Sprintf("%d", k))
	}
	t := stats.NewTable(headers...)
	idx := make(map[partKey]*GridPoint)
	for _, p := range points {
		idx[partKey{p.K, p.B}] = p
	}
	for _, b := range bs {
		row := []any{fmt.Sprintf("b=%g", b)}
		for _, k := range ks {
			if p, ok := idx[partKey{k, b}]; ok {
				row = append(row, f(p))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// HeuristicStudy compares the heuristic pre-simulation search (paper fig.
// 3) against the brute-force sweep: combinations visited and the quality
// of the chosen point.
func (c *Context) HeuristicStudy() (string, error) {
	cfg := &presim.Config{
		Design: c.ED, Ks: c.Ks, Bs: c.Bs,
		Cycles: c.PresimCycles / 4, Seed: c.Seed, Costs: c.Costs,
	}
	points, bruteBest, err := presim.BruteForce(cfg)
	if err != nil {
		return "", err
	}
	best, visited, err := presim.Heuristic(cfg)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf(
		"brute force: %d runs, best k=%d b=%g speedup=%.2f\nheuristic:   %d runs, best k=%d b=%g speedup=%.2f",
		len(points), bruteBest.K, bruteBest.B, bruteBest.Speedup,
		len(visited), best.K, best.B, best.Speedup), nil
}
