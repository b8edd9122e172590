package partition

import "testing"

// TestRestartSeedsDistinct: every restart must get its own init and pair
// seeds (the seed bug had all restarts replaying one pairing sequence),
// and the derivation must be a pure function of the master seed so
// concurrent restarts reproduce sequential ones.
func TestRestartSeedsDistinct(t *testing.T) {
	seeds := restartSeeds(1, 8)
	seen := make(map[int64]bool)
	for r, s := range seeds {
		for _, v := range []int64{s.init, s.pair} {
			if seen[v] {
				t.Fatalf("restart %d reuses seed %d", r, v)
			}
			seen[v] = true
		}
	}
	again := restartSeeds(1, 8)
	for r := range seeds {
		if seeds[r] != again[r] {
			t.Fatalf("restart %d seeds not reproducible", r)
		}
	}
	if other := restartSeeds(2, 1); other[0] == seeds[0] {
		t.Error("different master seeds produced the same restart seeds")
	}
}

func gatePartsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMultiwayParallelDeterminism: for a fixed seed, running the restarts
// on a pool must return byte-identical GateParts (and the same cut) as
// the sequential path, for every pairing strategy.
func TestMultiwayParallelDeterminism(t *testing.T) {
	ed := viterbiDesign(t)
	for _, s := range []PairingStrategy{PairRandom, PairGainBased} {
		seq, err := Multiway(ed, Options{K: 3, B: 10, Strategy: s, Seed: 7, Restarts: 6, Workers: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", s, err)
		}
		for _, workers := range []int{2, 4, 0} {
			par, err := Multiway(ed, Options{K: 3, B: 10, Strategy: s, Seed: 7, Restarts: 6, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", s, workers, err)
			}
			if par.Cut != seq.Cut {
				t.Errorf("%s workers=%d: cut %d != sequential %d", s, workers, par.Cut, seq.Cut)
			}
			if !gatePartsEqual(par.GateParts, seq.GateParts) {
				t.Errorf("%s workers=%d: GateParts differ from sequential", s, workers)
			}
		}
	}
}
