package multilevel

import "testing"

// TestPartitionAllocs holds both refinement policies' allocations on the
// flat SoC at K=8 — the level policy at one worker, the n-level policy at
// one and at four — to at most 3,000 a run each (2,583 / 2,603 / 2,720
// when the bound was set).
func TestPartitionAllocs(t *testing.T) {
	w := canonicalWorkloads(t)[3]
	if w.name != "soc" {
		t.Fatalf("canonical workload 3 is %s, want soc", w.name)
	}
	for _, tc := range []struct {
		engine  string
		workers int
	}{
		{"flat", 1}, {"n-level", 1}, {"n-level", 4},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := engines[tc.engine](w.flat, Options{K: 8, B: 10, Seed: 1, Workers: tc.workers}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s at %d workers: %.0f allocations a run", tc.engine, tc.workers, allocs)
		if allocs > 3000 {
			t.Errorf("%s at %d workers (SoC, K=8): %.0f allocations, want at most 3,000", tc.engine, tc.workers, allocs)
		}
	}
}
