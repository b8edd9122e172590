package clustersim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/sim"
)

// packedWorkloads is the four-workload pool of the acceptance
// differential: every family the paper's experiments run.
func packedWorkloads(t *testing.T) map[string]*elab.Design {
	t.Helper()
	out := make(map[string]*elab.Design)
	add := func(name string, c *gen.Circuit) {
		ed, err := c.Elaborate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = ed
	}
	add("viterbi", gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8}))
	add("fir", gen.FIR(gen.FIRConfig{Taps: 6, W: 6, Seed: 5}))
	add("multiplier", gen.Multiplier(5))
	add("soc", gen.ViterbiSoC(gen.SoCConfig{
		Channels:      2,
		Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
		ScramblerBits: 12,
		CRCBits:       8,
	}))
	return out
}

// TestPackedModelBitIdentical is the clustersim acceptance differential:
// for every workload and k ∈ {2, 4}, optimistic and synchronous, the
// packed trace generator must reproduce the scalar generator's Result
// exactly — every float, every count, every per-machine slice.
func TestPackedModelBitIdentical(t *testing.T) {
	for name, ed := range packedWorkloads(t) {
		for _, k := range []int{2, 4} {
			pr, err := partition.Multiway(ed, partition.Options{K: k, B: 10, Seed: 1})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			for _, synchronous := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/k%d/sync=%v", name, k, synchronous), func(t *testing.T) {
					run := func(mode PackedMode) *Result {
						res, err := Run(Config{
							NL: ed.Netlist, GateParts: pr.GateParts, K: k,
							Vectors: sim.RandomVectors{Seed: 7}, Cycles: 150,
							Synchronous: synchronous, Packed: mode,
						})
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					scalar := run(PackedOff)
					packed := run(PackedOn)
					if !reflect.DeepEqual(scalar, packed) {
						t.Fatalf("packed result diverges from scalar:\nscalar: %+v\npacked: %+v",
							scalar, packed)
					}
				})
			}
		}
	}
}

// TestPackedSharedWaveBank proves the campaign-sharing contract: many
// runs at different k over one shared bank return exactly what private
// banks return, and a bank that is too short or from another netlist is
// rejected.
func TestPackedSharedWaveBank(t *testing.T) {
	ed := packedWorkloads(t)["viterbi"]
	const cycles = 130 // ragged tail: 2 waves + 2 lanes
	bank, err := sim.NewWaveBank(ed.Netlist, sim.RandomVectors{Seed: 7}, cycles)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 4} {
		pr, err := partition.Multiway(ed, partition.Options{K: k, B: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		base := Config{
			NL: ed.Netlist, GateParts: pr.GateParts, K: k,
			Vectors: sim.RandomVectors{Seed: 7}, Cycles: cycles,
		}
		private, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		shared := base
		shared.Waves = bank
		got, err := Run(shared)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(private, got) {
			t.Fatalf("k=%d: shared-bank result diverges:\nprivate: %+v\nshared:  %+v", k, private, got)
		}
	}

	// A shared bank shorter than the run must be rejected, not misused.
	pr, err := partition.Multiway(ed, partition.Options{K: 2, B: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		NL: ed.Netlist, GateParts: pr.GateParts, K: 2,
		Vectors: sim.RandomVectors{Seed: 7}, Cycles: cycles + 1, Waves: bank,
	})
	if err == nil {
		t.Fatal("short shared bank accepted")
	}
	// And one built from a different netlist.
	other := packedWorkloads(t)["multiplier"]
	otherBank, err := sim.NewWaveBank(other.Netlist, sim.RandomVectors{Seed: 7}, cycles)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		NL: ed.Netlist, GateParts: pr.GateParts, K: 2,
		Vectors: sim.RandomVectors{Seed: 7}, Cycles: cycles, Waves: otherBank,
	})
	if err == nil {
		t.Fatal("foreign-netlist bank accepted")
	}
}

// TestPackedRunAllocs holds one packed run over a prebuilt wave bank — the
// regime of a campaign, where every (k, b) point replays one bank — on the
// SoC at k=4 for 2,000 cycles to at most 53,000 allocations (48,456 when
// the bound was set; the count does not depend on scheduling).
func TestPackedRunAllocs(t *testing.T) {
	ed := packedWorkloads(t)["soc"]
	pr, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 1, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 2000
	bank, err := sim.NewWaveBank(ed.Netlist, sim.RandomVectors{Seed: 1}, cycles)
	if err != nil {
		t.Fatal(err)
	}
	// Record every wave outside the counted run.
	for i := 0; i < bank.NumWaves(); i++ {
		if _, err := bank.Wave(i); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(Config{
			NL: ed.Netlist, GateParts: pr.GateParts, K: 4,
			Vectors: sim.RandomVectors{Seed: 1}, Cycles: cycles, Waves: bank,
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations a run", allocs)
	if allocs > 53000 {
		t.Errorf("packed run (SoC, K=4, %d cycles): %.0f allocations, want at most 53,000", cycles, allocs)
	}
}
