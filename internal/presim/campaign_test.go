package presim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeConfig builds a Config whose evaluator returns synthetic speedups
// from the given (k, b) table — no partitioning or simulation — so search
// semantics can be pinned exactly.
func fakeConfig(ks []int, bs []float64, speedup map[[2]float64]float64) *Config {
	cfg := &Config{Ks: ks, Bs: bs, Cycles: 1}
	cfg.evalFn = func(k int, b float64) (*Point, error) {
		s, ok := speedup[[2]float64{float64(k), b}]
		if !ok {
			return nil, fmt.Errorf("unexpected point k=%d b=%g", k, b)
		}
		return &Point{K: k, B: b, Speedup: s}, nil
	}
	return cfg
}

// TestHeuristicPlateauContinues: the paper stops a k-row when the speedup
// first *drops*; a plateau of equal speedups must keep going. The old
// `>` continuation broke the row on the first equal point.
func TestHeuristicPlateauContinues(t *testing.T) {
	cfg := fakeConfig([]int{2}, []float64{1, 2, 3, 4, 5},
		map[[2]float64]float64{
			{2, 1}: 1.0,
			{2, 2}: 1.0, // plateau: must continue
			{2, 3}: 1.2,
			{2, 4}: 0.9, // first drop: stop here
			{2, 5}: 9.9, // must never be visited
		})
	best, visited, err := Heuristic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 4 {
		t.Fatalf("visited %d points, want 4 (plateau continues, drop stops)", len(visited))
	}
	if best.K != 2 || best.B != 3 {
		t.Errorf("best = (k=%d, b=%g), want (2, 3)", best.K, best.B)
	}
}

// TestHeuristicZeroSpeedupFirstPoint: maxSpeedup used to start at 0, so a
// first point with speedup 0 terminated the row immediately.
func TestHeuristicZeroSpeedupFirstPoint(t *testing.T) {
	cfg := fakeConfig([]int{2}, []float64{1, 2},
		map[[2]float64]float64{
			{2, 1}: 0.0,
			{2, 2}: 0.5,
		})
	_, visited, err := Heuristic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 2 {
		t.Fatalf("visited %d points, want 2: a zero first point must not stop the row", len(visited))
	}
}

// TestBruteForceTieBreak: the documented tie-break (equal speedup →
// smaller k, then smaller b) must hold regardless of the order the
// candidate lists are given in.
func TestBruteForceTieBreak(t *testing.T) {
	speedup := map[[2]float64]float64{}
	for _, k := range []int{2, 3, 4} {
		for _, b := range []float64{5, 10} {
			speedup[[2]float64{float64(k), b}] = 1.5 // all tied
		}
	}
	for _, order := range [][]int{{2, 3, 4}, {4, 3, 2}, {3, 4, 2}} {
		for _, bs := range [][]float64{{5, 10}, {10, 5}} {
			cfg := fakeConfig(order, bs, speedup)
			_, best, err := BruteForce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if best.K != 2 || best.B != 5 {
				t.Errorf("ks=%v bs=%v: best = (k=%d, b=%g), want (2, 5)",
					order, bs, best.K, best.B)
			}
		}
	}
}

// TestHeuristicTieBreak: the heuristic breaks ties as BruteForce does
// (smaller k, then smaller b). It walks k downward, so keeping the first
// point at the best speedup picked the largest k.
func TestHeuristicTieBreak(t *testing.T) {
	speedup := map[[2]float64]float64{}
	for _, k := range []int{2, 3, 4} {
		for _, b := range []float64{5, 10} {
			speedup[[2]float64{float64(k), b}] = 1.5 // all tied
		}
	}
	for _, tc := range []struct {
		ks    []int
		bs    []float64
		wantK int
		wantB float64
	}{
		{[]int{2, 3, 4}, []float64{5, 10}, 2, 5},
		{[]int{4, 3, 2}, []float64{10, 5}, 2, 5},
		{[]int{3, 4}, []float64{5, 10}, 3, 5},
		{[]int{4}, []float64{10, 5}, 4, 5},
	} {
		for _, workers := range []int{1, 4} {
			cfg := fakeConfig(tc.ks, tc.bs, speedup)
			cfg.Workers = workers
			best, _, err := Heuristic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, bruteBest, err := BruteForce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if best.K != tc.wantK || best.B != tc.wantB || best.K != bruteBest.K || best.B != bruteBest.B {
				t.Errorf("ks=%v bs=%v workers=%d: heuristic best (k=%d, b=%g), brute force (k=%d, b=%g), want (%d, %g)",
					tc.ks, tc.bs, workers, best.K, best.B, bruteBest.K, bruteBest.B, tc.wantK, tc.wantB)
			}
		}
	}
}

// TestBruteForcePointOrder: the points list always comes back in
// cfg.Ks × cfg.Bs order, workers or not.
func TestBruteForcePointOrder(t *testing.T) {
	ks, bs := []int{3, 2}, []float64{10, 5}
	speedup := map[[2]float64]float64{
		{3, 10}: 1, {3, 5}: 2, {2, 10}: 3, {2, 5}: 4,
	}
	for _, workers := range []int{1, 4} {
		cfg := fakeConfig(ks, bs, speedup)
		cfg.Workers = workers
		points, _, err := BruteForce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for _, k := range ks {
			for _, b := range bs {
				if points[i].K != k || points[i].B != b {
					t.Fatalf("workers=%d: point %d is (k=%d,b=%g), want (%d,%g)",
						workers, i, points[i].K, points[i].B, k, b)
				}
				i++
			}
		}
	}
}

// pointsDiff explains the first difference between two point lists
// (every reported field, including the partition itself), or "".
func pointsDiff(a, b []*Point) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d points vs %d", len(a), len(b))
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.K != q.K || p.B != q.B || p.Cut != q.Cut || p.Speedup != q.Speedup ||
			p.SimTime != q.SimTime || p.Messages != q.Messages || p.Rollbacks != q.Rollbacks {
			return fmt.Sprintf("point %d differs: (k=%d b=%g cut=%d s=%v) vs (k=%d b=%g cut=%d s=%v)",
				i, p.K, p.B, p.Cut, p.Speedup, q.K, q.B, q.Cut, q.Speedup)
		}
		if len(p.GateParts) != len(q.GateParts) {
			return fmt.Sprintf("point %d GateParts length differs", i)
		}
		for g := range p.GateParts {
			if p.GateParts[g] != q.GateParts[g] {
				return fmt.Sprintf("point %d GateParts differ at gate %d", i, g)
			}
		}
	}
	return ""
}

func comparePoints(t *testing.T, label string, a, b []*Point) {
	t.Helper()
	if d := pointsDiff(a, b); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// TestBruteForceParallelDeterminism: the full pipeline on a real design
// must return the identical point list and best for Workers=1 and
// Workers=GOMAXPROCS.
func TestBruteForceParallelDeterminism(t *testing.T) {
	seqCfg := testConfig(t)
	seqCfg.Workers = 1
	seqPoints, seqBest, err := BruteForce(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := testConfig(t)
	parCfg.Design = seqCfg.Design
	parCfg.Workers = runtime.GOMAXPROCS(0)
	if parCfg.Workers < 2 {
		parCfg.Workers = 2
	}
	parPoints, parBest, err := BruteForce(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	comparePoints(t, "brute-force", seqPoints, parPoints)
	if seqBest.K != parBest.K || seqBest.B != parBest.B {
		t.Errorf("best differs: (%d,%g) vs (%d,%g)", seqBest.K, seqBest.B, parBest.K, parBest.B)
	}
}

// TestHeuristicParallelDeterminism: the row-parallel search must visit the
// exact sequence the sequential search visits and pick the same best.
func TestHeuristicParallelDeterminism(t *testing.T) {
	seqCfg := testConfig(t)
	seqCfg.Workers = 1
	seqBest, seqVisited, err := Heuristic(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := testConfig(t)
	parCfg.Design = seqCfg.Design
	parCfg.Workers = 4
	parBest, parVisited, err := Heuristic(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	comparePoints(t, "heuristic", seqVisited, parVisited)
	if seqBest.K != parBest.K || seqBest.B != parBest.B {
		t.Errorf("best differs: (%d,%g) vs (%d,%g)", seqBest.K, seqBest.B, parBest.K, parBest.B)
	}
}

// TestConcurrentCampaigns: several campaigns over one shared elaborated
// design must be race-free (run under -race) and each deterministic.
func TestConcurrentCampaigns(t *testing.T) {
	base := testConfig(t)
	refPoints, refBest, err := BruteForce(base)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := testConfig(t)
			cfg.Design = base.Design // shared read-only design
			cfg.Workers = 2
			points, best, err := BruteForce(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if d := pointsDiff(refPoints, points); d != "" {
				t.Errorf("concurrent campaign: %s", d)
			}
			if best.K != refBest.K || best.B != refBest.B {
				t.Errorf("concurrent campaign best differs")
			}
		}()
	}
	wg.Wait()
}

// countingConfig is fakeConfig over a 4×6 grid whose rows stop at
// different depths — k=5 after its second point, k=4 at its third, k=3
// runs out, k=2 drops at its fifth — with an evaluator that counts its
// calls.
func countingConfig(calls *atomic.Int64) *Config {
	ks, bs := []int{2, 3, 4, 5}, []float64{1, 2, 3, 4, 5, 6}
	rows := map[int][]float64{
		5: {2, 1, 9, 9, 9, 9},
		4: {1, 2, 1, 9, 9, 9},
		3: {1, 2, 3, 4, 5, 6},
		2: {1, 1, 2, 2, 1, 9},
	}
	speedup := map[[2]float64]float64{}
	for k, row := range rows {
		for i, s := range row {
			speedup[[2]float64{float64(k), bs[i]}] = s
		}
	}
	cfg := fakeConfig(ks, bs, speedup)
	eval := cfg.evalFn
	cfg.evalFn = func(k int, b float64) (*Point, error) {
		calls.Add(1)
		return eval(k, b)
	}
	return cfg
}

// TestHeuristicEvaluatesOnlyVisited: the search evaluates exactly the
// points it visits, at one worker, at two, and at more workers than rows:
// no point past a row's stop is ever run, not even speculatively.
func TestHeuristicEvaluatesOnlyVisited(t *testing.T) {
	var ref []*Point
	for _, workers := range []int{1, 2, 5} {
		var calls atomic.Int64
		cfg := countingConfig(&calls)
		cfg.Workers = workers
		_, visited, err := Heuristic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(visited) != 2+3+6+5 {
			t.Fatalf("workers=%d: visited %d points, want 16", workers, len(visited))
		}
		if n := calls.Load(); n != int64(len(visited)) {
			t.Errorf("workers=%d: %d evaluations for %d visited points", workers, n, len(visited))
		}
		if ref == nil {
			ref = visited
		} else if d := pointsDiff(ref, visited); d != "" {
			t.Errorf("workers=%d: %s", workers, d)
		}
	}
}

// TestBruteForceEvaluatesEachCellOnce: the brute force runs every grid
// cell exactly once, whatever the pool size.
func TestBruteForceEvaluatesEachCellOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 0, 64} {
		var calls atomic.Int64
		cfg := countingConfig(&calls)
		cfg.Workers = workers
		points, _, err := BruteForce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := len(cfg.Ks) * len(cfg.Bs)
		if n := calls.Load(); n != int64(want) || len(points) != want {
			t.Errorf("workers=%d: %d evaluations, %d points, want %d of each", workers, n, len(points), want)
		}
	}
}

// TestCampaignTracesEachWaveOnce: however many workers evaluate the points
// of a campaign, brute force or heuristic, its shared wave bank replays
// each wave exactly once, and the points are equal to the bit (walls
// aside) to the one-worker campaign's. Run it under -race: the workers ask
// the bank for the same traces at once.
func TestCampaignTracesEachWaveOnce(t *testing.T) {
	design := testConfig(t).Design
	searches := map[string]func(*Config) ([]*Point, error){
		"brute-force": func(cfg *Config) ([]*Point, error) {
			points, _, err := BruteForce(cfg)
			return points, err
		},
		"heuristic": func(cfg *Config) ([]*Point, error) {
			_, visited, err := Heuristic(cfg)
			return visited, err
		},
	}
	for name, search := range searches {
		var ref []Point
		for _, workers := range []int{1, 4} {
			cfg := testConfig(t)
			cfg.Design, cfg.Workers = design, workers
			points, err := search(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := cfg.waves.Replays(), cfg.waves.NumWaves(); got != want {
				t.Errorf("%s, %d workers: %d replays of a %d-wave bank", name, workers, got, want)
			}
			var got []Point
			for _, p := range points {
				q := *p
				q.PartWall, q.SimWall = 0, 0
				got = append(got, q)
			}
			if ref == nil {
				ref = got
			} else if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: %d workers' points differ from one worker's", name, workers)
			}
		}
	}
}
