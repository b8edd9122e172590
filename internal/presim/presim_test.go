package presim

import (
	"fmt"
	"testing"

	"repro/internal/clustersim"
	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/sim"
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
		if p.PartWall <= 0 || p.SimWall <= 0 {
			t.Errorf("k=%d b=%g: no wall time recorded (partition %v, model %v)", p.K, p.B, p.PartWall, p.SimWall)
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

// TestZeroCyclesIsAnError: a pre-simulation of no cycles models nothing,
// so every point would read speedup 0; both searches refuse it instead of
// picking a best among zeros.
func TestZeroCyclesIsAnError(t *testing.T) {
	const want = "presim: a pre-simulation of 0 cycles"
	cfg := testConfig(t)
	cfg.Cycles = 0
	if _, _, err := BruteForce(cfg); err == nil || err.Error() != want {
		t.Errorf("BruteForce: error %v, want %q", err, want)
	}
	if _, _, err := Heuristic(cfg); err == nil || err.Error() != want {
		t.Errorf("Heuristic: error %v, want %q", err, want)
	}
}

// TestEvaluateBuildsSharedWaveBank: the first Evaluate records the wave
// bank every later point of the campaign replays, over the campaign's
// cycles.
func TestEvaluateBuildsSharedWaveBank(t *testing.T) {
	cfg := testConfig(t)
	if _, err := Evaluate(cfg, 2, 10); err != nil {
		t.Fatal(err)
	}
	if cfg.waves == nil {
		t.Fatal("evaluation did not build the shared wave bank")
	}
	if cfg.waves.Cycles() != cfg.Cycles {
		t.Fatalf("shared bank covers %d cycles, want %d", cfg.waves.Cycles(), cfg.Cycles)
	}
}

// TestPackedCampaignBitIdentical is the presim layer of the scalar-vs-packed
// differential: over viterbi, fir, multiplier and soc, every point of a
// brute-force campaign, modeled by replaying the campaign's one shared
// wave bank, equals the scalar reference generator run on the point's
// partition — times, speedup, messages, rollbacks and critical path.
func TestPackedCampaignBitIdentical(t *testing.T) {
	mk := func(c *gen.Circuit) *elab.Design {
		ed, err := c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		return ed
	}
	for name, ed := range map[string]*elab.Design{
		"viterbi":    mk(gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})),
		"fir":        mk(gen.FIR(gen.FIRConfig{Taps: 6, W: 6, Seed: 5})),
		"multiplier": mk(gen.Multiplier(5)),
		"soc": mk(gen.ViterbiSoC(gen.SoCConfig{
			Channels:      2,
			Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
			ScramblerBits: 12,
			CRCBits:       8,
		})),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := &Config{Design: ed, Ks: []int{2, 4}, Bs: []float64{5, 10}, Cycles: 150, Seed: 3}
			points, _, err := BruteForce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range points {
				res, err := clustersim.Run(clustersim.Config{
					NL: ed.Netlist, GateParts: p.GateParts, K: p.K,
					Vectors: sim.RandomVectors{Seed: cfg.Seed}, Cycles: cfg.Cycles,
					Packed: clustersim.PackedOff,
				})
				if err != nil {
					t.Fatal(err)
				}
				ref := Point{
					SimTime: res.ParTime, SeqTime: res.SeqTime, Speedup: res.Speedup,
					Messages: res.Messages, Rollbacks: res.Rollbacks,
					CritPath: res.CritPath, BoundSpeedup: res.BoundSpeedup,
				}
				if got, want := pointString(p), pointString(&ref); got != want {
					t.Errorf("point k=%d b=%g diverges:\ncampaign: %s\nscalar:   %s", p.K, p.B, got, want)
				}
			}
		})
	}
}

// pointString renders the modeled fields of a point.
func pointString(p *Point) string {
	return fmt.Sprintf("sim=%g seq=%g speedup=%g msgs=%d rb=%d crit=%g bound=%g",
		p.SimTime, p.SeqTime, p.Speedup, p.Messages, p.Rollbacks, p.CritPath, p.BoundSpeedup)
}

func TestHeuristicEmptyConfig(t *testing.T) {
	cfg := testConfig(t)
	cfg.Ks = nil
	if _, _, err := Heuristic(cfg); err == nil {
		t.Error("empty Ks should error")
	}
}
