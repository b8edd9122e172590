package gen

import (
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// TestGeneratorFamily runs every generator through the full substrate:
// parse, elaborate, validate, levelize, build both hypergraph views, and
// simulate 50 cycles — the "any generated circuit is a valid workload"
// contract.
func TestGeneratorFamily(t *testing.T) {
	family := []*Circuit{
		Viterbi(ViterbiConfig{K: 3, W: 4, TB: 4}),
		Viterbi(ViterbiConfig{K: 5, W: 6, TB: 16}),
		ViterbiSoC(SoCConfig{Channels: 3, Viterbi: ViterbiConfig{K: 3, W: 4, TB: 4},
			ScramblerBits: 8, CRCBits: 4}),
		Multiplier(4),
		Multiplier(12),
		LFSR(8, nil),
		LFSR(24, []int{23, 17, 4}),
		FIR(FIRConfig{Taps: 6, W: 6, Seed: 2}),
		RandomHierarchical(RandHierConfig{
			ModuleTypes: 5, GatesPerModule: 12, InstancesPerModule: 2,
			TopInstances: 5, PIs: 8, Seed: 9, DFFFraction: 0.2,
		}),
		WideGates(40, 2),
	}
	for _, c := range family {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			ed, err := c.Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			if err := ed.Netlist.Validate(); err != nil {
				t.Fatal(err)
			}
			if _, err := ed.Netlist.Levels(); err != nil {
				t.Fatal(err)
			}
			hier, err := hypergraph.BuildHierarchical(ed)
			if err != nil {
				t.Fatal(err)
			}
			if err := hier.Validate(); err != nil {
				t.Fatal(err)
			}
			flat, err := hypergraph.BuildFlat(ed)
			if err != nil {
				t.Fatal(err)
			}
			if hier.TotalWeight != flat.TotalWeight {
				t.Fatalf("weight mismatch across views: %d vs %d",
					hier.TotalWeight, flat.TotalWeight)
			}
			s, err := sim.New(ed.Netlist)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(sim.RandomVectors{Seed: 1}, 50); err != nil {
				t.Fatal(err)
			}
			if s.Events == 0 && ed.Netlist.NumGates() > 0 {
				t.Error("no simulation activity")
			}
		})
	}
}
