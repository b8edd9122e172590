// The two searches over the (k, b) grid. Every point evaluation is
// independent, so both fan out over one par.Each pool of Config.Workers
// while keeping the sequential semantics:
//
//   - BruteForce runs one job per grid cell and aggregates in grid order,
//     so the points list, the reported best, and the error returned on
//     failure are identical to the one-worker sweep;
//   - Heuristic runs one job per k-row. A row is the paper's fig. 3 walk,
//     sequential in b and stopped by stopRow, so no point past a row's stop
//     is ever evaluated; the rows are merged in descending-k order.
package presim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/par"
)

// checkGrid refuses a grid with no point in it, and a pre-simulation of
// no cycles, whose every point models nothing: neither search has a best
// point to return.
func (cfg *Config) checkGrid() error {
	if len(cfg.Ks) == 0 || len(cfg.Bs) == 0 {
		return fmt.Errorf("presim: empty candidate sets")
	}
	if cfg.Cycles == 0 {
		return fmt.Errorf("presim: a pre-simulation of 0 cycles")
	}
	return nil
}

// BruteForce evaluates every (k, b) combination — the paper's Table 3 —
// and returns all points in cfg.Ks × cfg.Bs order plus the best one
// (largest speedup; ties to smaller k, then smaller b). The grid cells are
// evaluated on a pool of cfg.Workers; the returned points order, best
// point, and error are identical to the sequential sweep.
func BruteForce(cfg *Config) (points []*Point, best *Point, err error) {
	if err := cfg.checkGrid(); err != nil {
		return nil, nil, err
	}
	sweepT0 := cfg.Obs.Start()
	type cell struct {
		k int
		b float64
	}
	cells := make([]cell, 0, len(cfg.Ks)*len(cfg.Bs))
	for _, k := range cfg.Ks {
		for _, b := range cfg.Bs {
			cells = append(cells, cell{k, b})
		}
	}
	results := make([]*Point, len(cells))
	errs := make([]error, len(cells))
	// No cancel-on-error: letting every cell finish keeps the error report
	// deterministic (first cell in grid order), and partition errors are
	// systematic enough that the waste does not matter.
	par.Each(len(cells), cfg.Workers, func(i int) {
		obs.Labeled("presim", obs.TrackCampaign, "brute", func() {
			results[i], errs[i] = cfg.eval(cells[i].k, cells[i].b)
		})
	})

	// Deterministic aggregation in grid order.
	for i, p := range results {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		points = append(points, p)
		if best == nil || betterPoint(p, best) {
			best = p
		}
	}
	cfg.Obs.Span(obs.TrackCampaign, "presim.brute_force", sweepT0,
		obs.Arg{Key: "points", Val: float64(len(points))},
		obs.Arg{Key: "best_k", Val: float64(best.K)},
		obs.Arg{Key: "best_speedup", Val: best.Speedup})
	return points, best, nil
}

// Heuristic is the paper's fig. 3 search: for each k from the maximum
// down, sweep b upward from the smallest candidate and stop as soon as
// the speedup first *drops* below the row's running maximum (a plateau of
// equal speedups keeps going); track the best point seen, ties broken as
// BruteForce breaks them (smaller k, then smaller b). It visits far
// fewer combinations than the brute force at the risk of a local minimum,
// which the paper acknowledges. The k-rows are walked on a pool of
// cfg.Workers; visited and best are identical to the sequential search.
func Heuristic(cfg *Config) (best *Point, visited []*Point, err error) {
	if err := cfg.checkGrid(); err != nil {
		return nil, nil, err
	}
	// Descending k: "start with the maximum number of processors".
	searchT0 := cfg.Obs.Start()
	ks := append([]int(nil), cfg.Ks...)
	sort.Sort(sort.Reverse(sort.IntSlice(ks)))
	bs := append([]float64(nil), cfg.Bs...)
	sort.Float64s(bs)
	rows := make([][]*Point, len(ks))
	errs := make([]error, len(ks))
	par.Each(len(ks), cfg.Workers, func(i int) {
		obs.Labeled("presim", obs.TrackCampaign, "heuristic", func() {
			rows[i], errs[i] = cfg.runRow(ks[i], bs)
		})
	})
	for i, row := range rows {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		for _, p := range row {
			visited = append(visited, p)
			if best == nil || betterPoint(p, best) {
				best = p
			}
		}
	}
	cfg.Obs.Span(obs.TrackCampaign, "presim.heuristic", searchT0,
		obs.Arg{Key: "visited", Val: float64(len(visited))},
		obs.Arg{Key: "best_k", Val: float64(best.K)},
		obs.Arg{Key: "best_speedup", Val: best.Speedup})
	return best, visited, nil
}

// stopRow applies the fig. 3 stop rule to the point just appended to a
// row: stop after the first point whose speedup strictly drops below the
// row's running maximum. maxSpeedup starts at -Inf so a first point with
// speedup 0 (or any value) never terminates the row by itself.
func stopRow(maxSpeedup *float64, p *Point) bool {
	if p.Speedup < *maxSpeedup {
		return true
	}
	if p.Speedup > *maxSpeedup {
		*maxSpeedup = p.Speedup
	}
	return false
}

// runRow walks one k-row of the heuristic in b order, up to and including
// the point that fires the stop rule.
func (cfg *Config) runRow(k int, bs []float64) ([]*Point, error) {
	maxSpeedup := math.Inf(-1)
	var row []*Point
	for _, b := range bs {
		p, err := cfg.eval(k, b)
		if err != nil {
			return nil, err
		}
		row = append(row, p)
		if stopRow(&maxSpeedup, p) {
			break
		}
	}
	return row, nil
}
