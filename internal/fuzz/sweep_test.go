package fuzz

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestSweepMatchesRecord holds the levelized cycle machine (sim.Levelized)
// to the event-driven simulator (sim.Record) on the circuits of the
// TestFuzzShort seeds: every primary output and flip-flop output
// (sim.StateNets) after every cycle of the spec. The two disciplines are
// independent — zero-delay fused tables in topological order against
// two-phase unit-delay deltas — and these circuits carry gates of three
// and more inputs, which the machine fuses into records of four inputs and
// chains of them, and shapes the gen families do not emit.
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
			got, err := sim.Levelized(nl, src, spec.Cycles, state)
			if err != nil {
				t.Fatal(err)
			}
			for c := uint64(0); c < spec.Cycles; c++ {
				for _, n := range state {
					if got[n][c] != want[n][c] {
						t.Fatalf("%s: net %s cycle %d: machine %v, simulator %v",
							spec.Family, nl.Nets[n].Name, c, got[n][c], want[n][c])
					}
				}
			}
		})
	}
	if wide == 0 {
		t.Fatal("no circuit has a gate of three or more inputs: the machine's records of three and four inputs and its chains went untested")
	}
}
