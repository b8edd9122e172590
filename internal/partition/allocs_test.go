package partition_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
)

// TestMultiwayAllocs holds the design-driven partitioner's allocations on
// the SoC at k=4 — eight restarts; the kept one flattens four times — to
// at most 20,000 (753,654 when every hypergraph rebuild grew each net's
// pins and each vertex's incidences by append).
func TestMultiwayAllocs(t *testing.T) {
	ed, err := gen.ViterbiSoC(gen.DefaultSoC).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20000 {
		t.Errorf("Multiway(SoC, K=4): %.0f allocations, want at most 20,000", allocs)
	}
}
