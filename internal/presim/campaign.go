// Campaign engine: the worker-pool execution of the pre-simulation
// searches. The (k, b) selection loop is the dominant wall-clock cost of
// a run, and every point evaluation is independent, so the sweep fans out
// over a bounded pool while keeping the sequential semantics:
//
//   - BruteForce evaluates the whole grid concurrently but aggregates in
//     grid order, so the points list, the reported best, and the error
//     returned on failure are identical to the one-worker sweep;
//   - Heuristic keeps the paper's fig. 3 stop rule exact by consuming each
//     k-row in b order while *speculatively* evaluating the next points of
//     the row on idle workers; once the stop rule fires, the speculative
//     work is cancelled (context-based, aborting in-flight partitioner
//     rounds) and its points are discarded, never visited.
package presim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/profile"
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
// (largest speedup; ties to smaller k, then smaller b). With more than
// one worker the grid is evaluated concurrently; the returned points
// order, best point, and error are identical to the sequential sweep.
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

	workers := cfg.WorkerCount()
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for i, c := range cells {
			if results[i], errs[i] = cfg.eval(context.Background(), c.k, c.b); errs[i] != nil {
				return nil, nil, errs[i]
			}
		}
	} else {
		// No cancel-on-error: letting every cell finish keeps the error
		// report deterministic (first cell in grid order), and partition
		// errors are systematic enough that the waste does not matter.
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				profile.Do("presim", obs.TrackCampaign, "brute", func() {
					for i := range idx {
						results[i], errs[i] = cfg.eval(context.Background(), cells[i].k, cells[i].b)
					}
				})
			}()
		}
		for i := range cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

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
// which the paper acknowledges. With more than one worker the next points
// of each row are evaluated speculatively; visited and best are identical
// to the sequential search.
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
	for _, k := range ks {
		row, err := cfg.runRow(k, bs)
		if err != nil {
			return nil, nil, err
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

// runRow evaluates one k-row of the heuristic up to and including the
// point that fires the stop rule.
func (cfg *Config) runRow(k int, bs []float64) ([]*Point, error) {
	workers := cfg.WorkerCount()
	if workers > len(bs) {
		workers = len(bs)
	}
	maxSpeedup := math.Inf(-1)
	if workers <= 1 {
		var row []*Point
		for _, b := range bs {
			p, err := cfg.eval(context.Background(), k, b)
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

	// Speculative execution: a launcher keeps up to `workers` evaluations
	// of the row in flight while the consumer applies the stop rule in b
	// order. Cancelling ctx both stops the launcher and aborts in-flight
	// partitioner work; slots past the stop point are discarded.
	ctx, cancel := context.WithCancel(context.Background())
	type slot struct {
		p   *Point
		err error
	}
	slots := make([]slot, len(bs))
	done := make([]chan struct{}, len(bs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range bs {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				for ; i < len(bs); i++ {
					slots[i].err = ctx.Err()
					close(done[i])
				}
				return
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				profile.Do("presim", obs.TrackCampaign, "heuristic", func() {
					slots[i].p, slots[i].err = cfg.eval(ctx, k, bs[i])
				})
				close(done[i])
			}(i)
		}
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()

	var row []*Point
	for i := range bs {
		<-done[i]
		if err := slots[i].err; err != nil {
			return nil, err
		}
		row = append(row, slots[i].p)
		if stopRow(&maxSpeedup, slots[i].p) {
			break
		}
	}
	return row, nil
}
