package fuzz

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestSweepMatchesRecord holds the levelized cycle sweep to the
// event-driven simulator on the circuits of the TestFuzzShort seeds: every
// primary output and flip-flop output (sim.StateNets) after every cycle of
// the spec. The two disciplines are independent — zero-delay topological
// order against two-phase unit-delay deltas — and these circuits carry
// gates of three and more inputs and shapes the gen families do not emit.
func TestSweepMatchesRecord(t *testing.T) {
	wide := 0 // gates of three or more inputs, over all seeds
	for seed := int64(1); seed <= 25; seed++ {
		spec := NewSpec(seed, true)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ed, err := spec.Circuit().Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			nl := ed.Netlist
			for i := range nl.Gates {
				if len(nl.Gates[i].Inputs) > 2 {
					wide++
				}
			}
			state := sim.StateNets(nl)
			src := sim.RandomVectors{Seed: spec.GenSeed}
			want, err := sim.Record(nl, src, spec.Cycles, state)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := sim.NewSweep(nl)
			if err != nil {
				t.Fatal(err)
			}
			vec := make([]bool, len(sw.PIs))
			for c := uint64(0); c < spec.Cycles; c++ {
				src.Vector(c, vec)
				sw.Step(vec)
				for _, n := range state {
					if got := sw.Values()[n]; got != want[n][c] {
						t.Fatalf("%s: net %s cycle %d: sweep %v, simulator %v",
							spec.Family, nl.Nets[n].Name, c, got, want[n][c])
					}
				}
			}
		})
	}
	if wide == 0 {
		t.Fatal("no circuit has a gate of three or more inputs: the sweep's EvalGate path went untested")
	}
}
