package presim

import (
	"testing"

	"repro/internal/gen"
)

func testConfig(t *testing.T) *Config {
	t.Helper()
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	return &Config{
		Design: ed,
		Ks:     []int{2, 3},
		Bs:     []float64{5, 10, 15},
		Cycles: 100,
		Seed:   3,
	}
}

func TestBruteForceCoversGrid(t *testing.T) {
	cfg := testConfig(t)
	points, best, err := BruteForce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(cfg.Ks)*len(cfg.Bs) {
		t.Fatalf("got %d points, want %d", len(points), len(cfg.Ks)*len(cfg.Bs))
	}
	if best == nil {
		t.Fatal("no best point")
	}
	for _, p := range points {
		if p.Speedup > best.Speedup {
			t.Errorf("best (%f) is not the max (%f at k=%d b=%g)",
				best.Speedup, p.Speedup, p.K, p.B)
		}
		if len(p.GateParts) != cfg.Design.Netlist.NumGates() {
			t.Errorf("k=%d b=%g: GateParts incomplete", p.K, p.B)
		}
	}
}

// TestEmptyGridIsAnError: a grid with no k or no b has no best point, and
// both searches say so instead of dereferencing one.
func TestEmptyGridIsAnError(t *testing.T) {
	const want = "presim: empty candidate sets"
	for _, grid := range []struct {
		name string
		ks   []int
		bs   []float64
	}{
		{"no Ks", nil, []float64{10}},
		{"no Bs", []int{2}, nil},
	} {
		cfg := testConfig(t)
		cfg.Ks, cfg.Bs = grid.ks, grid.bs
		if _, _, err := BruteForce(cfg); err == nil || err.Error() != want {
			t.Errorf("BruteForce, %s: error %v, want %q", grid.name, err, want)
		}
		if _, _, err := Heuristic(cfg); err == nil || err.Error() != want {
			t.Errorf("Heuristic, %s: error %v, want %q", grid.name, err, want)
		}
	}
}

func TestBestPerK(t *testing.T) {
	cfg := testConfig(t)
	points, _, err := BruteForce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	best := BestPerK(points)
	if len(best) != len(cfg.Ks) {
		t.Fatalf("BestPerK has %d entries, want %d", len(best), len(cfg.Ks))
	}
	for k, p := range best {
		if p.K != k {
			t.Errorf("entry for k=%d has K=%d", k, p.K)
		}
		for _, q := range points {
			if q.K == k && q.Speedup > p.Speedup {
				t.Errorf("k=%d: better point exists (%f > %f)", k, q.Speedup, p.Speedup)
			}
		}
	}
}

func TestHeuristicVisitsFewerAndFindsGoodPoint(t *testing.T) {
	cfg := testConfig(t)
	points, bruteBest, err := BruteForce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	best, visited, err := Heuristic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) > len(points) {
		t.Errorf("heuristic visited %d ≥ brute force %d", len(visited), len(points))
	}
	if best == nil {
		t.Fatal("heuristic found nothing")
	}
	// The heuristic may be trapped in a local minimum (the paper says
	// so), but it should be within a reasonable factor of the best.
	if best.Speedup < bruteBest.Speedup*0.5 {
		t.Errorf("heuristic best %.3f far below brute force %.3f",
			best.Speedup, bruteBest.Speedup)
	}
	t.Logf("heuristic: %d/%d visits, best %.3f vs brute %.3f",
		len(visited), len(points), best.Speedup, bruteBest.Speedup)
}

func TestHeuristicEmptyConfig(t *testing.T) {
	cfg := testConfig(t)
	cfg.Ks = nil
	if _, _, err := Heuristic(cfg); err == nil {
		t.Error("empty Ks should error")
	}
}
